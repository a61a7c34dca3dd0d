"""Newton polyhedron of a monomial ideal, with exact membership tests.

The polyhedron P = conv(generators) + R^n_{>=0} is stored by its extreme
points (a subset of the generators) and its facet inequalities <w, a> >= c
with componentwise non-negative normals. Facets with offset c > 0 face the
origin and form the Newton diagram ("staircase boundary"); facets with
c = 0 lie on coordinate hyperplanes. The Newton region -- the closure of the
complement of P inside the positive orthant -- is represented implicitly:
a non-negative point belongs to it iff it satisfies <w, p> <= c for some
diagram facet.

Facets are integral: normals and offsets are plain ints, points are exact
rationals. Membership and facet decisions are sign decisions and must not
depend on tolerances. The facets are found once, by cone_facets on the
homogenization; their incidences (the extreme points v with
f.value(v) == f.offset) are the face lattice that decompose triangulates.

A generator is extreme iff simplex.feasible puts it outside
conv(other generators) + orthant: the packing LP max sum lambda_j subject to
sum_j lambda_j u_j <= v over the other generators u stays below 1.
contains_lp asks the same LP about a point over the extreme points; it never
reads the facets, so it checks the facet route of contains independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .cones import cone_facets
from .errors import (DimensionMismatch, InternalInconsistency, InvalidInput,
                     NegativeCoordinate)
from .ideals import ExponentVector, MonomialIdeal
from .linalg import dot
from .simplex import feasible

RationalPoint = tuple[Fraction, ...]


@dataclass(frozen=True)
class Facet:
    """Inequality <normal, a> >= offset; normal and offset are coprime ints
    (the primitive normal of the homogenized cone's facet)."""

    normal: tuple[int, ...]
    offset: int

    @property
    def is_diagram(self) -> bool:
        return self.offset > 0

    def value(self, point: Sequence[Fraction | int]) -> Fraction | int:
        return dot(self.normal, point)


@dataclass(frozen=True)
class NewtonPolyhedron:
    n: int
    extreme_points: tuple[ExponentVector, ...]
    facets: tuple[Facet, ...]

    @property
    def diagram_facets(self) -> tuple[Facet, ...]:
        return tuple(f for f in self.facets if f.is_diagram)

    @property
    def coordinate_facets(self) -> tuple[Facet, ...]:
        return tuple(f for f in self.facets if not f.is_diagram)


def _is_extreme(candidate: ExponentVector, others: Sequence[ExponentVector]) -> bool:
    """candidate is extreme iff it is not in conv(others) + orthant."""
    return not others or not feasible(others, candidate)


@lru_cache(maxsize=512)
def newton_polyhedron(ideal: MonomialIdeal) -> NewtonPolyhedron:
    """Extreme points and complete facet description of conv(gens) + orthant.

    Facets are enumerated exhaustively on the homogenization: generators
    (v, 1) for extreme points v together with the axis rays (e_i, 0) span a
    pointed full-dimensional cone in R^(n+1) whose facets, apart from the
    hyperplane at infinity, are exactly the facets of the polyhedron.
    """
    n = ideal.n
    gens = ideal.generators
    extremes = tuple(
        v for v in gens if _is_extreme(v, [u for u in gens if u != v])
    )

    homog = [v + (1,) for v in extremes]
    for axis in range(n):
        ray = [0] * (n + 1)
        ray[axis] = 1
        homog.append(tuple(ray))

    # every normal but the hyperplane at infinity's is a facet of P
    facets = sorted((Facet(normal=y[:n], offset=-y[n])
                     for y in cone_facets(homog) if any(y[:n])),
                    key=lambda f: (f.normal, f.offset))

    poly = NewtonPolyhedron(n, extremes, tuple(facets))
    for v in extremes:  # cheap sanity; a failure means the enumeration is wrong
        if not all(f.value(v) >= f.offset for f in poly.facets):
            raise InternalInconsistency(f"extreme point {v} violates a facet of {ideal}")
    return poly


def _check_point(n: int, point: Sequence[Fraction | int]) -> RationalPoint:
    try:
        p = tuple(Fraction(x) for x in point)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInput(f"point coordinates must be finite rationals: {point!r}") from None
    if len(p) != n:
        raise DimensionMismatch(f"point has {len(p)} coordinates, expected {n}")
    return p


def contains(poly: NewtonPolyhedron, point: Sequence[Fraction | int]) -> bool:
    """Membership in the Newton polyhedron, via the facet inequalities."""
    p = _check_point(poly.n, point)
    return all(f.value(p) >= f.offset for f in poly.facets)


def contains_lp(poly: NewtonPolyhedron, point: Sequence[Fraction | int]) -> bool:
    """Same membership decided by the packing LP over the extreme points.

    Kept alongside the facet route on purpose; the two must agree and the
    test suite checks that they do.
    """
    return feasible(poly.extreme_points, _check_point(poly.n, point))


def in_newton_region(ideal: MonomialIdeal | NewtonPolyhedron,
                     point: Sequence[Fraction | int]) -> bool:
    """Membership in the closed complement of the polyhedron in the orthant.

    Boundary points of the diagram belong to both the region and the
    polyhedron (the region is a closure), so ties count as inside.
    """
    poly = ideal if isinstance(ideal, NewtonPolyhedron) else newton_polyhedron(ideal)
    p = _check_point(poly.n, point)
    if any(x < 0 for x in p):
        raise NegativeCoordinate(f"point {p} leaves the positive orthant")
    return any(f.value(p) <= f.offset for f in poly.diagram_facets)


def polyhedron_to_json(poly: NewtonPolyhedron) -> dict:
    """JSON-ready dump: diagram facets are scaled to offset 1 for readability."""
    facets = []
    for f in poly.facets:
        if f.is_diagram:
            normal = [str(Fraction(x, f.offset)) for x in f.normal]
            offset = "1"
        else:
            normal = [str(x) for x in f.normal]
            offset = "0"
        facets.append({"normal": normal, "offset": offset, "diagram": f.is_diagram})
    return {
        "n": poly.n,
        "extreme_points": [list(v) for v in poly.extreme_points],
        "facets": facets,
    }
