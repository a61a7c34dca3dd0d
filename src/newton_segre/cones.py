"""Exact machinery for pointed rational polyhedral cones.

Cones are given by integer generators (tuples of ints). cone_facets finds
the facets of a full-dimensional pointed cone by exhaustive search over
(d-1)-subsets of generators, and refuses up front above MAX_FACET_SUBSETS
of them. Each facet normal is the integer kernel vector of d-1 generators
(from linalg's fraction-free elimination) divided by its gcd: the primitive
inward normal. With it comes the facet's zero set, read from the same signs.

Faces are ints: bit i is set iff generator i lies on the face. When every
generator spans its own extreme ray, every face is an intersection of
facets, and the facets of a face F are the inclusion-maximal proper cuts
F & w with the cone's facets w (De Loera, Rambau, Santos, *Triangulations*,
2010, ch. 4). pull_triangulation needs no geometry: it cones from the lowest
generator of a face over the triangulated facets of the face that do not
contain it, and a face of one generator is a leaf. This "pulling"
triangulation is insensitive to degenerate vertex configurations (e.g. four
coplanar vertices on a 2-face) and canonical once the generator order is
fixed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd
from typing import Sequence

from .errors import EstimateTooLarge
from .linalg import dot, kernel_basis, rref

Vector = tuple[int, ...]

# Largest number of subsets one facet search may try: it admits the maximal
# ideal in 10 variables, C(20, 10) = 184,756 subsets in 9.7 s on a 2-vCPU
# Xeon, and 20 generators in 6 variables, C(26, 6) = 230,230 in about 20 s.
MAX_FACET_SUBSETS = 1 << 18


def span_basis(gens: Sequence[Vector]) -> list[tuple[Fraction | int, ...]]:
    """Basis of the linear span of the generators."""
    reduced, pivots = rref(gens)
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
    bit i is set iff dot(y, gens[i]) == 0. Raises EstimateTooLarge above
    MAX_FACET_SUBSETS subsets."""
    subsets = comb(len(gens), len(gens[0]) - 1)
    if subsets > MAX_FACET_SUBSETS:
        raise EstimateTooLarge(f"the facet search would try {subsets} generator subsets, "
                               f"above MAX_FACET_SUBSETS = {MAX_FACET_SUBSETS}")
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


def pull_triangulation(face: int, walls: Sequence[int]) -> list[list[int]]:
    """Triangulate a face of a pointed cone into simplicial subcones.

    face and walls are bitmasks of generators, each spanning its own extreme
    ray; walls are the cone's facets, or any faces whose cuts with face are
    the faces of face. Returns index lists; each list is linearly
    independent and the subcones cover the face with pairwise disjoint
    interiors. The lowest bit of each face is its pulling pivot, so an
    order-preserving renumbering renumbers the pieces only.
    """
    if face & (face - 1) == 0:
        return [[face.bit_length() - 1]]
    cuts = {face & wall for wall in walls} - {face}
    # the maximal cuts, ordered by their generator lists, not by value: the
    # order of the pieces follows this one
    facets = sorted((c for c in cuts if not any(c != d and c & d == c for d in cuts)),
                    key=lambda f: [i for i in range(f.bit_length()) if f >> i & 1])
    pivot = (face & -face).bit_length() - 1
    # F & w == F & (face & w) for a face F of face: the cuts are its walls
    return [tau + [pivot]
            for facet in facets if not facet >> pivot & 1
            for tau in pull_triangulation(facet, cuts)]
