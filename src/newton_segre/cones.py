"""Exact machinery for pointed rational polyhedral cones.

Cones are given by integer generators (tuples of ints). Facets are found by
exhaustive search over (d-1)-subsets of generators, which is simple and
robust at the desk scale this package targets (dimension <= 5, at most a
dozen or so generators). The search runs on the generators' d pivot
coordinates, a projection that is injective on their span; each facet normal
is the coprime integer kernel vector of d-1 of them, zero off the pivots. For
a full-dimensional cone that is the primitive inward normal; for a lower-
dimensional one, an integer functional cutting out the facet in the span.
The triangulation is a "pulling" triangulation: cone from the first
generator in the supplied order over the triangulated facets that do not
contain it. That recursion is insensitive to degenerate vertex
configurations (e.g. four coplanar vertices on a 2-face) and is canonical
once the generator order is fixed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Sequence

from .linalg import dot, kernel_basis, rref

Vector = tuple[int, ...]


def span_basis(gens: Sequence[Vector]) -> list[tuple[Fraction, ...]]:
    """Basis of the linear span of the generators."""
    reduced, pivots = rref([list(g) for g in gens])
    return [tuple(reduced[i]) for i in range(len(pivots))]


def canonical_normal(v: Sequence[Fraction]) -> Vector:
    """Clear denominators of a kernel_basis vector (it has an entry 1, so the
    result is coprime); the caller fixes the sign."""
    scale = lcm(*(x.denominator for x in v))
    return tuple(int(x * scale) for x in v)


def cone_facets(gens: Sequence[Vector]) -> list[tuple[Vector, frozenset[int]]]:
    """Facets of the pointed cone spanned by gens, within their linear span.

    Returns (normal, incidence) pairs: the normal is a coprime integer vector
    with dot(normal, g) >= 0 for every generator, and incidence is the set of
    generator indices lying on the facet hyperplane. Facets of the cone
    relative to its own span, so a full-dimensional input behaves as usual.
    """
    _reduced, pivots = rref([list(g) for g in gens])
    d = len(pivots)
    if d <= 1:
        return []
    projected = [tuple(g[p] for p in pivots) for g in gens]
    found: dict[frozenset[int], Vector] = {}
    for subset in combinations(range(len(gens)), d - 1):
        ker = kernel_basis([projected[s] for s in subset])
        if len(ker) != 1:
            continue
        y = canonical_normal(ker[0])
        sides = [dot(y, g) for g in projected]
        if all(s >= 0 for s in sides):
            pass
        elif all(s <= 0 for s in sides):
            y = tuple(-x for x in y)
            sides = [-s for s in sides]
        else:
            continue
        incidence = frozenset(i for i, s in enumerate(sides) if s == 0)
        if incidence not in found:
            normal = [0] * len(gens[0])
            for p, x in zip(pivots, y):
                normal[p] = x
            found[incidence] = tuple(normal)
    return [
        (normal, inc)
        for inc, normal in sorted(found.items(), key=lambda kv: sorted(kv[0]))
    ]


def pull_triangulation(gens: Sequence[Vector]) -> list[list[int]]:
    """Triangulate a pointed cone into simplicial subcones on its generators.

    Returns index lists into gens; each list is linearly independent and the
    subcones cover the cone with pairwise disjoint interiors. The result
    depends only on the order of gens (the first generator of each sub-cone
    is the pulling pivot), so permuting the input permutes the decomposition.
    """
    def recurse(indices: list[int]) -> list[list[int]]:
        sub = [gens[i] for i in indices]
        d = len(span_basis(sub))
        if d == 0:
            return []
        if d == 1:
            return [[indices[0]]]
        pivot = indices[0]
        pieces: list[list[int]] = []
        for _normal, incidence in cone_facets(sub):
            if 0 in incidence:  # facet contains the pivot generator
                continue
            face = [indices[j] for j in range(len(indices)) if j in incidence]
            for tau in recurse(face):
                pieces.append(tau + [pivot])
        return pieces

    return recurse(list(range(len(gens))))
