"""Exact simplex for the one hull LP of a Newton polyhedron, a packing LP.

For non-zero, non-negative integer points V and P = conv(V) + R^n_{>=0},
every LP question about P is max sum_j lambda_j subject to
sum_j lambda_j v_j <= p, lambda >= 0, for a target p >= 0. With
p = (1,...,1) the optimum is 1/sigma, sigma the diagonal exit
min { s >= 0 : s*(1,...,1) in P } (by LP duality, the lct). p lies in P
exactly when the optimum is at least 1: the optimal lambda scaled to sum 1
is a convex combination below p. As p >= 0 the slack basis is a feasible
start, and as no v_j is zero the optimum is finite.

The tableau is dense over fractions.Fraction. Pivots follow Bland's rule:
the entering column is the first with a negative reduced cost, and ties in
the ratio test go to the smallest basic index. The LP can be degenerate
(ties in the ratio test), and Bland's rule rules out cycling, so every
solve terminates and takes the same pivots on every run.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InternalInconsistency, InvalidInput

_ZERO, _ONE = Fraction(0), Fraction(1)


def _pivot(T: list[list[Fraction]], basis: list[int], r: int, c: int) -> None:
    inv = T[r][c]
    T[r] = [x / inv for x in T[r]]
    for i, row in enumerate(T):
        if i != r and row[c] != 0:
            f = row[c]
            T[i] = [a - f * b for a, b in zip(row, T[r])]
    basis[r] = c


def solve_lp(points: Sequence[Sequence[int]],
             target: Sequence[Fraction | int] | None = None) -> Fraction:
    """max sum lambda_j subject to sum_j lambda_j v_j <= target, lambda >= 0.

    The default target (1,...,1) gives 1 / diagonal exit. A negative target
    coordinate or a zero point raises InvalidInput: the slack basis would be
    infeasible or the LP unbounded."""
    n = len(points[0])
    p = (1,) * n if target is None else target
    if any(x < 0 for x in p):
        raise InvalidInput(f"packing LP target {tuple(p)} has a negative coordinate")
    if not all(any(v) for v in points):
        raise InvalidInput("packing LP over a zero point is unbounded")
    k = len(points)
    # columns: lambda_1..lambda_k | slack_1..slack_n | rhs
    T = [[Fraction(v[i]) for v in points]
         + [_ONE if j == i else _ZERO for j in range(n)] + [Fraction(p[i])] for i in range(n)]
    basis = list(range(k, k + n))
    # reduced costs of min -sum lambda; the last entry is the objective sum lambda
    z = [-_ONE] * k + [_ZERO] * (n + 1)
    while True:
        entering = next((c for c in range(k + n) if z[c] < 0), None)
        if entering is None:
            return z[-1]
        ratios = [(row[-1] / row[entering], basis[r], r)
                  for r, row in enumerate(T) if row[entering] > 0]
        if not ratios:
            raise InternalInconsistency("packing LP over non-zero points is unbounded")
        _, _, leaving = min(ratios)
        f = z[entering]
        _pivot(T, basis, leaving, entering)
        z = [a - f * t for a, t in zip(z, T[leaving])]


def feasible(points: Sequence[Sequence[int]], target: Sequence[Fraction | int]) -> bool:
    """target in conv(points) + orthant: target >= 0 and the packing LP reaches 1."""
    return all(x >= 0 for x in target) and solve_lp(points, target) >= 1
