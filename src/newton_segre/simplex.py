"""Exact simplex for the one hull LP of a Newton polyhedron, a packing LP.

For non-zero, non-negative integer points V and P = conv(V) + R^n_{>=0},
every LP question about P is max sum_j lambda_j subject to
sum_j lambda_j v_j <= p, lambda >= 0, for a target p >= 0. With
p = (1,...,1) the optimum is 1/sigma, sigma the diagonal exit
min { s >= 0 : s*(1,...,1) in P } (by LP duality, the lct). p lies in P
exactly when the optimum is at least 1: the optimal lambda scaled to sum 1
is a convex combination below p. As p >= 0 the slack basis is a feasible
start, and as no v_j is zero the optimum is finite.

The points are read by ideals._integers and the target by ideals._rationals;
there must be a point, and the points and the target must have one length.
The tableau holds only ints: rows [v_j | I | L*p], L the lcm of the target's
denominators, and the reduced costs as the last row. It pivots only through
linalg._pivot, the fraction-free (Bareiss) step, so each entry is D times
its rational value for the target L*p, where D > 0, the last pivot, is the
determinant of the basis (Edmonds 1967). Entries are minors of the starting
matrix, so each division is exact; signs and the order of the ratios
rhs/entry are the rational ones, so Bland's rule (the first column with a
negative reduced cost enters; ties in the ratio test go to the smallest
basic index) takes the same pivots, and the optimum is the objective entry
over D*L. Bland's rule rules out cycling on degenerate LPs, so every solve
terminates and takes the same pivots on every run.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import InternalInconsistency, InvalidInput
from .ideals import _integers, _rationals
from .linalg import _pivot


def _lp_input(points: Sequence[Sequence[int]], target: Sequence[Fraction | int] | None
              ) -> tuple[list[tuple[int, ...]], list[Fraction]]:
    """The points and the target, (1,...,1) by default, read and checked as
    the module docstring says."""
    rows = [_integers(v, "packing LP points") for v in points]
    if not rows:
        raise InvalidInput("packing LP needs at least one point")
    n = len(rows[0])
    p, _ = _rationals((1,) * n if target is None else target, "packing LP target")
    if any(len(v) != n for v in rows) or len(p) != n:
        raise InvalidInput(f"packing LP points and target must all have length {n}")
    return rows, p


def solve_lp(points: Sequence[Sequence[int]],
             target: Sequence[Fraction | int] | None = None) -> Fraction:
    """max sum lambda_j subject to sum_j lambda_j v_j <= target, lambda >= 0.

    The default target (1,...,1) gives 1 / diagonal exit. A negative target
    coordinate or a zero point raises InvalidInput: the slack basis would be
    infeasible or the LP unbounded."""
    points, p = _lp_input(points, target)
    if any(x < 0 for x in p):
        raise InvalidInput(f"packing LP target {tuple(target)} has a negative coordinate")
    if not all(any(v) for v in points):
        raise InvalidInput("packing LP over a zero point is unbounded")
    k, n = len(points), len(p)
    L = lcm(*(x.denominator for x in p))
    # columns: lambda_1..lambda_k | slack_1..slack_n | rhs; the last row holds
    # the reduced costs of min -sum lambda, then the objective sum lambda
    T = [[v[i] for v in points] + [int(j == i) for j in range(n)]
         + [x.numerator * (L // x.denominator)] for i, x in enumerate(p)]
    T.append([-1] * k + [0] * (n + 1))
    basis, d = list(range(k, k + n)), 1
    while True:
        c = next((c for c, z in enumerate(T[-1][:-1]) if z < 0), None)
        if c is None:
            return Fraction(T[-1][-1], d * L)
        rows = [r for r in range(n) if T[r][c] > 0]
        if not rows:
            raise InternalInconsistency("packing LP over non-zero points is unbounded")
        leaving = rows[0]
        for r in rows[1:]:  # least ratio T[r][-1] / T[r][c], then least basic index
            x = T[r][-1] * T[leaving][c] - T[leaving][-1] * T[r][c]
            if x < 0 or (x == 0 and basis[r] < basis[leaving]):
                leaving = r
        basis[leaving] = c
        d = _pivot(T, leaving, c, d)


def feasible(points: Sequence[Sequence[int]], target: Sequence[Fraction | int]) -> bool:
    """target in conv(points) + orthant: target >= 0 and the packing LP reaches 1."""
    _, p = _lp_input(points, target)
    return all(x >= 0 for x in p) and solve_lp(points, p) >= 1
