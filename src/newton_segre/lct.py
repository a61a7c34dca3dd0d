"""Log canonical thresholds of monomial ideals via the diagonal criterion.

For a monomial ideal the threshold is the reciprocal of the parameter at
which the main diagonal t*(1,...,1) first enters the Newton polyhedron.
That exit parameter sigma is the internal primitive here (it avoids
reciprocal churn); the threshold itself is a view on it.

sigma is computed two ways on every call -- as 1 / the packing LP of
simplex.solve_lp (max sum mu_j subject to sum_j mu_j v_j <= (1,...,1)),
which reads only the extreme points, and as the maximum of c / <w, (1,..,1)>
over diagram facets -- and the two must agree, which keeps the LP solver and
the facet enumeration honest against each other.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import InternalInconsistency, InvalidInput
from .ideals import MonomialIdeal, _integers, stretch
from .polyhedron import NewtonPolyhedron, newton_polyhedron
from .simplex import solve_lp


def diagonal_exit(poly: NewtonPolyhedron) -> Fraction:
    """min { s >= 0 : s*(1,...,1) lies in the polyhedron }, exactly."""
    via_lp = 1 / solve_lp(poly.extreme_points)
    via_facets = max(
        Fraction(f.offset, sum(f.normal)) for f in poly.diagram_facets
    )
    if via_lp != via_facets:
        raise InternalInconsistency(
            f"diagonal exit mismatch: LP says {via_lp}, facets say {via_facets}")
    return via_lp


@lru_cache(maxsize=4096)
def lct(ideal: MonomialIdeal) -> Fraction:
    """Log canonical threshold: 1 / diagonal_exit of the Newton polyhedron."""
    return 1 / diagonal_exit(newton_polyhedron(ideal))


def cross_stretch_factors(direction: Sequence[int]) -> tuple[int, ...]:
    """(prod_{j != 1} a_j, ..., prod_{j != n} a_j) for a lattice direction a."""
    total = math.prod(direction)
    return tuple(total // a_i for a_i in direction)


def _validated(ideal: MonomialIdeal, direction: Sequence[int], m: int) -> tuple[int, ...]:
    a = _integers(direction, "direction entries")
    if len(a) != ideal.n:
        raise InvalidInput(f"direction {a} has length {len(a)}, expected {ideal.n}")
    if any(x < 1 for x in a):
        raise InvalidInput("direction entries must be positive integers")
    if m < 1:
        raise InvalidInput("m must be a positive integer")
    return a


def lct_condition(ideal: MonomialIdeal, direction: Sequence[int], m: int) -> bool:
    """lct of the cross-stretched ideal >= m / (a_1 ... a_n), exactly.

    This is the summation condition of the lattice estimator: stretch each
    variable by the product of the other direction entries, then compare the
    threshold against m over the full product.
    """
    a = _validated(ideal, direction, m)
    stretched = stretch(ideal, cross_stretch_factors(a))
    return lct(stretched) >= Fraction(m, math.prod(a))


def region_condition_via_lct(ideal: MonomialIdeal, direction: Sequence[int], m: int) -> bool:
    """(a_1 ... a_n) * lct(cross-stretched ideal) <= m, exactly.

    The threshold-side membership test for (a/m) lying in the Newton region;
    the non-strict comparison matches the region being a closure, so diagram
    boundary points satisfy both this and lct_condition.
    """
    a = _validated(ideal, direction, m)
    stretched = stretch(ideal, cross_stretch_factors(a))
    return math.prod(a) * lct(stretched) <= m
