"""Exact simplex for the two hull LPs of a Newton polyhedron.

For a finite set V of non-negative integer points, P = conv(V) + R^n_{>=0}.
The package asks an LP two questions about P, both over lambda >= 0 with
the convexity row sum_j lambda_j = 1:

* membership of a point p: sum_j lambda_j v_j <= p, phase 1 only;
* the diagonal exit min { s >= 0 : s*(1,...,1) in P }: the same rows with a
  leading -s column and right-hand side 0, then phase 2 on s.

Each coordinate row starts with its slack basic, and the convexity row
carries the one artificial variable. A target with a negative coordinate is
infeasible without a tableau, because every v_j >= 0.

The tableau is dense over fractions.Fraction. Pivots follow Bland's rule:
the entering column is the first with a negative reduced cost, and ties in
the ratio test go to the smallest basic index. Both LPs are degenerate (the
diagonal one has right-hand side 0), and Bland's rule rules out cycling, so
every solve terminates and takes the same pivots on every run. Fraction
stays until the integer-preserving tableau of ROADMAP item 2 replaces it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InternalInconsistency

_ZERO, _ONE = Fraction(0), Fraction(1)


def _pivot(T: list[list[Fraction]], basis: list[int], r: int, c: int) -> None:
    inv = T[r][c]
    T[r] = [x / inv for x in T[r]]
    for i, row in enumerate(T):
        if i != r and row[c] != 0:
            f = row[c]
            T[i] = [a - f * b for a, b in zip(row, T[r])]
    basis[r] = c


def _minimize(T: list[list[Fraction]], basis: list[int], cost: list[Fraction]) -> None:
    """Bland's-rule minimization of cost . x; mutates T and basis."""
    z = cost + [_ZERO]
    for r, b in enumerate(basis):
        if z[b] != 0:
            f = z[b]
            z = [a - f * t for a, t in zip(z, T[r])]
    while True:
        entering = next((c for c in range(len(cost)) if z[c] < 0), None)
        if entering is None:
            return
        ratios = [(row[-1] / row[entering], basis[r], r)
                  for r, row in enumerate(T) if row[entering] > 0]
        if not ratios:
            raise InternalInconsistency("hull LP is bounded below by zero, yet unbounded")
        _, _, leaving = min(ratios)
        f = z[entering]
        _pivot(T, basis, leaving, entering)
        z = [a - f * t for a, t in zip(z, T[leaving])]


def solve_lp(points: Sequence[Sequence[int]],
             target: Sequence[Fraction | int] | None = None) -> Fraction | None:
    """Optimum of a hull LP over the non-empty point list, None if infeasible.

    Without a target this is the diagonal exit of conv(points) + orthant.
    With a target p the rows are sum lambda_j v_j <= p with no s column, so
    the optimum is 0 exactly when p lies in the polyhedron.
    """
    if target is not None and any(x < 0 for x in target):
        return None
    n = len(points[0])
    s_col = [-_ONE] if target is None else []
    rhs = (0,) * n if target is None else target
    # columns: [-s] | lambda_1..lambda_k | slack_1..slack_n | artificial | rhs
    T = [s_col + [Fraction(v[i]) for v in points]
         + [_ONE if j == i else _ZERO for j in range(n)] + [_ZERO, Fraction(rhs[i])]
         for i in range(n)]
    T.append([_ZERO] * len(s_col) + [_ONE] * len(points) + [_ZERO] * n + [_ONE, _ONE])
    art = len(T[0]) - 2
    basis = list(range(art - n, art)) + [art]

    _minimize(T, basis, [_ZERO] * art + [_ONE])
    if art in basis and T[basis.index(art)][-1] != 0:
        return None
    if target is not None:
        return _ZERO
    if art in basis:
        # A zero-valued artificial leaves the basis, so that its column can
        # be dropped before phase 2. Its row always has a nonzero entry
        # outside that column: the convexity row is no combination of the
        # slack rows.
        r = basis.index(art)
        _pivot(T, basis, r, next(c for c in range(art) if T[r][c] != 0))
    for row in T:
        del row[art]
    _minimize(T, basis, [_ONE] + [_ZERO] * (art - 1))
    return next((row[-1] for row, b in zip(T, basis) if b == 0), _ZERO)


def feasible(points: Sequence[Sequence[int]], target: Sequence[Fraction | int]) -> bool:
    """target in conv(points) + orthant, decided by phase 1 of the membership LP."""
    return solve_lp(points, target) is not None
