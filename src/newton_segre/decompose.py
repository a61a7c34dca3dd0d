"""Decomposition of the Newton region into generalized simplices.

The region between the origin and the Newton diagram is star-shaped about
the origin (the polyhedron absorbs the orthant, so scaling toward 0 stays
outside it). Coning the origin over a triangulation of each diagram facet
therefore tiles the whole region:

  * each diagram facet is a pointed (n-1)-polyhedron whose recession cone is
    spanned by the axes its normal misses;
  * homogenizing (vertices at height 1, recession axes at height 0) turns it
    into a pointed n-cone, a face of the homogenized cone of P, whose
    generators each span an extreme ray. Its faces are therefore known from
    the facets of P alone: a facet g of P contributes the vertices on g and
    the rays parallel to g, and the hyperplane at infinity all the rays.
    pull_triangulation splits the cone on those index sets into simplicial
    cones on the original vertices and rays;
  * adding the origin as apex to each piece yields a generalized simplex:
    p+1 finite vertices and q axis rays with p + q = n.

Pieces have pairwise disjoint interiors and their union is exactly the
region; the test suite verifies this pointwise at scale. Their vertices are
the generators' integer tuples and the origin (0,)*n, so jacobians are ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Sequence

from .cones import pull_triangulation
from .errors import DegenerateFacet, InvalidInput
from .linalg import det
from .polyhedron import NewtonPolyhedron


@dataclass(frozen=True)
class GeneralizedSimplex:
    """conv(finite_vertices) + cone(e_k : k in ray_axes), with p + q = n.

    finite_vertices lists v_0..v_p; jacobian is |det| of the columns
    (v_1 - v_0, ..., v_p - v_0, e_k1, ..., e_kq) and is always positive (an
    int when the vertices are integral).
    """

    finite_vertices: tuple[tuple[Fraction | int, ...], ...]
    ray_axes: frozenset[int]
    jacobian: Fraction | int

    @property
    def n(self) -> int:
        return len(self.finite_vertices[0])

    def coordinate_matrix(self) -> list[list[Fraction | int]]:
        """Columns spanning the piece from v_0: edge vectors then ray axes."""
        v0 = self.finite_vertices[0]
        cols = [
            [vi - a for vi, a in zip(v, v0)]
            for v in self.finite_vertices[1:]
        ]
        for axis in sorted(self.ray_axes):
            e = [0] * self.n
            e[axis] = 1
            cols.append(e)
        return [[cols[j][i] for j in range(len(cols))] for i in range(self.n)]


def _coordinate(x: Rational) -> Fraction | int:
    """x as an int when it is integral, else as a Fraction."""
    if not isinstance(x, Rational):
        raise InvalidInput(f"piece vertex coordinates are rationals, got {x!r}")
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def make_piece(finite_vertices: Sequence[Sequence[Fraction | int]],
               ray_axes: Sequence[int]) -> GeneralizedSimplex:
    """The piece with its integral vertex coordinates stored as ints, so
    equal pieces compare and expand alike whatever types built them."""
    vertices = tuple(tuple(x if type(x) is int else _coordinate(x) for x in v)
                     for v in finite_vertices)
    rays = frozenset(int(k) for k in ray_axes)
    n = len(vertices[0])
    if len(vertices) - 1 + len(rays) != n:
        raise InvalidInput("piece needs p+1 vertices and q rays with p+q = n")
    piece = GeneralizedSimplex(vertices, rays, 0)
    jac = abs(det(piece.coordinate_matrix()))
    if jac == 0:
        raise DegenerateFacet(f"zero jacobian for vertices {vertices}, rays {sorted(rays)}")
    return GeneralizedSimplex(vertices, rays, jac)


def cone_decomposition(poly: NewtonPolyhedron,
                       vertex_order: Sequence[Sequence[int]] | None = None
                       ) -> list[GeneralizedSimplex]:
    """Generalized simplices with apex 0 tiling the Newton region.

    vertex_order optionally fixes the triangulation's insertion priority of
    extreme points (default: lexicographic); changing it changes the pieces
    but never their summed integral.
    """
    n = poly.n
    if vertex_order is None:
        priority = {v: v for v in poly.extreme_points}
    else:
        order = [tuple(v) for v in vertex_order]
        missing = [v for v in poly.extreme_points if v not in order]
        if missing:
            raise InvalidInput(f"vertex_order misses the extreme points {missing}")
        priority = {v: (order.index(v),) for v in poly.extreme_points}

    origin = (0,) * n
    pieces: list[GeneralizedSimplex] = []
    for facet in poly.diagram_facets:
        vertices = sorted(
            (v for v in poly.extreme_points if facet.value(v) == facet.offset),
            key=lambda v: priority[v],
        )
        rays = [axis for axis in range(n) if facet.normal[axis] == 0]

        # faces of the homogenized facet, as indices into vertices + rays
        k = len(vertices)
        walls = [frozenset([i for i, v in enumerate(vertices) if g.value(v) == g.offset]
                           + [k + j for j, axis in enumerate(rays) if g.normal[axis] == 0])
                 for g in poly.facets]
        walls.append(frozenset(range(k, k + len(rays))))
        for idx in pull_triangulation(k + len(rays), walls):
            pieces.append(make_piece([origin] + [vertices[i] for i in idx if i < k],
                                     [rays[i - k] for i in idx if i >= k]))
    return pieces


def piece_membership(piece: GeneralizedSimplex,
                     point: Sequence[Fraction]) -> str:
    """'interior', 'boundary' or 'outside', decided exactly.

    Solves for the simplex coordinates (lambda_1..lambda_p, mu_k) of the
    point; interior means every coordinate, including the implicit
    lambda_0 = 1 - sum(lambda), is strictly positive.
    """
    from .linalg import rref  # local import keeps module load light

    n = piece.n
    v0 = piece.finite_vertices[0]
    rhs = [Fraction(x) - a for x, a in zip(point, v0)]
    m = piece.coordinate_matrix()
    augmented = [row + [rhs[i]] for i, row in enumerate(m)]
    reduced, pivots = rref(augmented)
    if len(pivots) != n or n in pivots:
        raise InvalidInput("coordinate matrix must be invertible")
    coords = [reduced[i][n] for i in range(n)]
    p = len(piece.finite_vertices) - 1
    lambdas = coords[:p]
    mus = coords[p:]
    lambda0 = 1 - sum(lambdas)
    all_coords = [lambda0] + lambdas + mus
    if any(c < 0 for c in all_coords):
        return "outside"
    if any(c == 0 for c in all_coords):
        return "boundary"
    return "interior"
