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
homogenization of every generator, with their zero sets: the walls, the
face lattice that decompose triangulates and that decides which generators
are extreme. Walls are bitmasks, the one face encoding from cone_facets to
pull_triangulation; polyhedra are cached and kept, and an int below 2^30
takes at most 28 bytes, against 216 for a small frozenset.

contains_lp decides membership by simplex.feasible, the packing LP over the
ideal's generators; it never reads the facets, so it checks the facet route
of contains independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import and_
from typing import Sequence

from .cones import cone_facets
from .errors import DimensionMismatch, InternalInconsistency, NegativeCoordinate
from .ideals import ExponentVector, MonomialIdeal, _rationals
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
    """Bit i of walls[j] is set iff generator i of the homogenized cone lies
    on facets[j]: extreme point i, then axis ray k as len(extreme_points) + k.
    The last wall is the hyperplane at infinity. generators are the ideal's
    minimal generators; only the LP cross-checks read them."""

    n: int
    extreme_points: tuple[ExponentVector, ...]
    facets: tuple[Facet, ...]
    walls: tuple[int, ...]
    generators: tuple[ExponentVector, ...]

    @property
    def diagram_facets(self) -> tuple[Facet, ...]:
        return tuple(f for f in self.facets if f.is_diagram)


@lru_cache(maxsize=512)
def newton_polyhedron(ideal: MonomialIdeal) -> NewtonPolyhedron:
    """Extreme points and complete facet description of conv(gens) + orthant.

    Facets are enumerated exhaustively on the homogenization: the generators
    (v, 1) and the axis rays (e_i, 0) span a pointed full-dimensional cone in
    R^(n+1) whose facets, apart from the hyperplane at infinity, are the
    facets of P. The smallest face through a generator is the intersection
    of the facets through it and is spanned by the generators it contains:
    a generator is extreme iff the zero sets through it meet in it alone.
    """
    n, gens = ideal.n, ideal.generators
    homog = [v + (1,) for v in gens]
    homog += [tuple(int(i == axis) for i in range(n + 1)) for axis in range(n)]

    # the hyperplane at infinity, normal (0,...,0,1), sorts first, as every
    # facet of P has a positive entry in y[:n]; its wall goes last
    (_, at_infinity), *found = cone_facets(homog)
    zero_sets = [wall for _, wall in found] + [at_infinity]
    extreme = [i for i in range(len(gens)) if 1 << i == reduce(
        and_, (wall for wall in zero_sets if wall >> i & 1), (1 << len(homog)) - 1)]
    # renumbered: extreme point j is bit j, axis ray k bit len(extreme) + k
    walls = tuple(sum(1 << j for j, i in enumerate(extreme) if wall >> i & 1)
                  | wall >> len(gens) << len(extreme) for wall in zero_sets)
    facets = tuple(Facet(normal=y[:n], offset=-y[n]) for y, _ in found)
    for v in gens:  # cheap sanity; a failure means the enumeration is wrong
        if not all(f.value(v) >= f.offset for f in facets):
            raise InternalInconsistency(f"generator {v} violates a facet of {ideal}")
    return NewtonPolyhedron(n, tuple(gens[i] for i in extreme), facets, walls, gens)


def _check_point(n: int, point: Sequence[Fraction | int]) -> RationalPoint:
    """The point read by ideals._rationals, refused unless it has n coordinates."""
    p = tuple(_rationals(point, "point coordinates")[0])
    if len(p) != n:
        raise DimensionMismatch(f"point has {len(p)} coordinates, expected {n}")
    return p


def contains(poly: NewtonPolyhedron, point: Sequence[Fraction | int]) -> bool:
    """Membership in the Newton polyhedron, via the facet inequalities."""
    p = _check_point(poly.n, point)
    return all(f.value(p) >= f.offset for f in poly.facets)


def contains_lp(poly: NewtonPolyhedron, point: Sequence[Fraction | int]) -> bool:
    """Same membership decided by the packing LP over the generators.

    Kept alongside the facet route on purpose; the two must agree and the
    test suite checks that they do.
    """
    return feasible(poly.generators, _check_point(poly.n, point))


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
