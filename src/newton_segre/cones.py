"""Exact machinery for pointed rational polyhedral cones.

Cones are given by integer generators (tuples of ints). cone_facets finds
the facets of a full-dimensional pointed cone by exhaustive search over
(d-1)-subsets of generators, which is simple and robust at the desk scale
this package targets (Newton polyhedra in at most 6 variables). Each
facet normal is the integer kernel vector of d-1 generators (from linalg's
fraction-free elimination) divided by its gcd: the primitive inward normal.
All of it is plain int arithmetic. With each normal it returns the facet's
zero set, the generators on it, from the same signs, as a bitmask.

pull_triangulation needs no geometry at all. When every generator spans its
own extreme ray, a face of the cone is the set of generators it contains,
every face is an intersection of facets, and the facets of a face are the
inclusion-maximal proper intersections of that face with the cone's facets
(De Loera, Rambau, Santos, *Triangulations*, 2010, ch. 4). The triangulation
is a "pulling" triangulation on that face lattice: cone from the first
generator of a face over the triangulated facets of the face that do not
contain it; a face of one generator is a leaf. It is insensitive to
degenerate vertex configurations (e.g. four coplanar vertices on a 2-face)
and canonical once the generator order is fixed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Sequence

from .linalg import dot, kernel_basis, rref

Vector = tuple[int, ...]


def span_basis(gens: Sequence[Vector]) -> list[tuple[Fraction | int, ...]]:
    """Basis of the linear span of the generators."""
    reduced, pivots = rref([list(g) for g in gens])
    return [tuple(reduced[i]) for i in range(len(pivots))]


def canonical_normal(v: Sequence[int]) -> Vector:
    """The coprime integer vector along a nonzero integer kernel_basis vector;
    the caller fixes the sign."""
    g = gcd(*v)
    return tuple(x // g for x in v)


def cone_facets(gens: Sequence[Vector]) -> list[tuple[Vector, int]]:
    """The facets of the pointed, full-dimensional cone spanned by gens,
    sorted by normal: each primitive inward normal y (coprime ints with
    dot(y, g) >= 0 for every generator g) with its zero set, the int whose
    bit i is set iff dot(y, gens[i]) == 0."""
    found: dict[Vector, int] = {}
    for subset in combinations(gens, len(gens[0]) - 1):
        ker = kernel_basis(subset)
        if len(ker) != 1:
            continue
        y = canonical_normal(ker[0])
        sides = [dot(y, g) for g in gens]
        if min(sides) < 0 < max(sides):
            continue
        if min(sides) < 0:
            y = tuple(-x for x in y)
        found[y] = sum(1 << i for i, side in enumerate(sides) if side == 0)
    return sorted(found.items())


def pull_triangulation(face: frozenset[int],
                       walls: Sequence[frozenset[int]]) -> list[list[int]]:
    """Triangulate a face of a pointed cone into simplicial subcones.

    Every generator spans its own extreme ray, walls lists the cone's facets
    as the sets of generators they contain, and face is the set of
    generators of the face to triangulate. Returns index lists; each list is
    linearly independent and the subcones cover the face with pairwise
    disjoint interiors. The smallest index of each face is its pulling
    pivot, so an order-preserving renumbering renumbers the pieces only.
    """
    def recurse(face: frozenset[int]) -> list[list[int]]:
        if len(face) == 1:
            return [list(face)]
        cuts = {face & wall for wall in walls} - {face}
        facets = sorted((c for c in cuts if not any(c < d for d in cuts)), key=sorted)
        pivot = min(face)
        return [tau + [pivot]
                for facet in facets if pivot not in facet
                for tau in recurse(facet)]

    return recurse(frozenset(face))
