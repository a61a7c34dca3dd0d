"""Decomposition of the Newton region into generalized simplices.

The region between the origin and the Newton diagram is star-shaped about
the origin (the polyhedron absorbs the orthant, so scaling toward 0 stays
outside it). Coning the origin over a triangulation of each diagram facet
therefore tiles the whole region:

  * each diagram facet is a pointed (n-1)-polyhedron whose recession cone is
    spanned by the axes its normal misses;
  * homogenizing (vertices at height 1, recession axes at height 0) turns it
    into a pointed n-cone, a face of the homogenized cone of P whose
    generators each span an extreme ray: the facet's wall in
    NewtonPolyhedron.walls, a bitmask of extreme points and axis rays.
    pull_triangulation splits it on those walls into simplicial cones on the
    original vertices and rays;
  * adding the origin as apex to each piece yields a generalized simplex:
    p+1 finite vertices and q axis rays with p + q = n.

Pieces have pairwise disjoint interiors and their union is exactly the
region; the test suite verifies this pointwise at scale. Their vertices are
the generators' integer tuples and the origin (0,)*n: make_piece stores
vertices as ints and refuses a non-integral one, so jacobians are int
determinants and piece_membership decides a rational point on the integer
elimination after scaling it by its common denominator, as read by
ideals._rationals. make_piece also refuses vertices of unequal length, none
or negative ones, and ray axes that repeat or leave 0..n-1. It checks
caller input only: cone_decomposition reads its vertices from the
polyhedron's checked int extreme points and its ray axes from the wall
bits, and the triangulation's index lists are linearly independent, so it
builds each piece through the same private constructor, _piece, which
only computes the jacobian.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from math import lcm
from numbers import Rational
from typing import Sequence

from .cones import pull_triangulation
from .errors import DegenerateFacet, InvalidInput, NegativeCoordinate
from .ideals import _integers, _rationals
from .linalg import det, rref
from .polyhedron import NewtonPolyhedron


@dataclass(frozen=True)
class GeneralizedSimplex:
    """conv(finite_vertices) + cone(e_k : k in ray_axes), with p + q = n.

    finite_vertices lists the integer vertices v_0..v_p; jacobian is the
    positive int |det| of the columns (v_1 - v_0, ..., v_p - v_0, e_k1, ...,
    e_kq).
    """

    finite_vertices: tuple[tuple[int, ...], ...]
    ray_axes: frozenset[int]
    jacobian: int

    @property
    def n(self) -> int:
        return len(self.finite_vertices[0])

    def coordinate_matrix(self) -> list[list[int]]:
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


def _coordinate(x: Rational) -> int:
    """x as an int; InvalidInput unless it is an integral rational."""
    if isinstance(x, Rational) and x.denominator == 1:
        return int(x.numerator)
    raise InvalidInput(f"piece vertex coordinates are integers, got {x!r}")


def make_piece(finite_vertices: Sequence[Sequence[Rational]],
               ray_axes: Sequence[int]) -> GeneralizedSimplex:
    """The piece with its vertex coordinates stored as ints, so equal pieces
    compare and expand alike whatever types built them. InvalidInput for a
    non-integral coordinate, no vertex, vertices of unequal length, or ray
    axes (read by ideals._integers) other than distinct axes in 0..n-1;
    NegativeCoordinate for a vertex outside the orthant."""
    vertices = tuple(tuple(map(_coordinate, v)) for v in finite_vertices)
    if not vertices or any(len(v) != len(vertices[0]) for v in vertices):
        raise InvalidInput(f"piece vertices {vertices} must be one or more points of one length")
    n = len(vertices[0])
    if any(x < 0 for v in vertices for x in v):
        raise NegativeCoordinate(f"piece vertices {vertices} leave the positive orthant")
    axes = _integers(ray_axes, "ray axes")
    rays = frozenset(axes)
    if len(rays) != len(axes) or not all(0 <= k < n for k in axes):
        raise InvalidInput(f"ray axes {axes} must be distinct axes in 0..{n - 1}")
    if len(vertices) - 1 + len(rays) != n:
        raise InvalidInput("piece needs p+1 vertices and q rays with p+q = n")
    piece = _piece(vertices, rays)
    if piece.jacobian == 0:
        raise DegenerateFacet(f"zero jacobian for vertices {vertices}, rays {sorted(rays)}")
    return piece


def _piece(vertices: tuple[tuple[int, ...], ...], rays: frozenset[int]) -> GeneralizedSimplex:
    """The piece on int vertices and ray axes already known to fit together,
    with its jacobian. Expanding the determinant of the coordinate matrix
    along its unit columns e_k leaves, up to sign, the p x p minor of the
    edge vectors v_i - v_0 on the axes that are not rays."""
    v0 = vertices[0]
    minor = [[v[axis] - v0[axis] for v in vertices[1:]]
             for axis in range(len(v0)) if axis not in rays]
    return GeneralizedSimplex(vertices, rays, abs(det(minor)))


def cone_decomposition(poly: NewtonPolyhedron,
                       vertex_order: Sequence[Sequence[int]] | None = None
                       ) -> list[GeneralizedSimplex]:
    """Generalized simplices with apex 0 tiling the Newton region.

    vertex_order optionally fixes the triangulation's insertion priority of
    extreme points (default: lexicographic): an iterable of points, each
    read by ideals._integers; changing it changes the pieces but never their
    summed integral.
    """
    if vertex_order is not None and not isinstance(vertex_order, Iterable):
        raise InvalidInput(f"vertex_order must be an iterable of points, got {vertex_order!r}")
    points, k = poly.extreme_points, len(poly.extreme_points)
    order = sorted(points) if vertex_order is None else [
        _integers(v, "vertex_order entries") for v in vertex_order]
    missing = [v for v in points if v not in order]
    if missing:
        raise InvalidInput(f"vertex_order misses the extreme points {missing}")
    # renumber the extreme points' bits in priority order, as the pulling
    # pivot of a face is its lowest bit; axis ray j keeps bit k + j
    vertices = sorted(points, key=order.index)
    renumber = [1 << vertices.index(v) for v in points]
    walls = [sum(bit for i, bit in enumerate(renumber) if wall >> i & 1)
             | wall >> k << k for wall in poly.walls]

    origin = (0,) * poly.n
    pieces: list[GeneralizedSimplex] = []
    for facet, wall in zip(poly.facets, walls):
        if facet.is_diagram:
            for idx in pull_triangulation(wall, walls):
                pieces.append(_piece((origin, *(vertices[i] for i in idx if i < k)),
                                     frozenset(i - k for i in idx if i >= k)))
    return pieces


def piece_membership(piece: GeneralizedSimplex,
                     point: Sequence[Rational]) -> str:
    """'interior', 'boundary' or 'outside', decided exactly.

    Solves for the simplex coordinates (lambda_1..lambda_p, mu_k) of the
    point; interior means every coordinate, including the implicit
    lambda_0 = 1 - sum(lambda), is strictly positive. The point is scaled
    once by the common denominator L of its coordinates, so the elimination
    runs on integers and yields L times each coordinate, and L - sum(L lambda)
    for lambda_0, which have the same signs.
    """
    n, v0 = piece.n, piece.finite_vertices[0]
    xs, _ = _rationals(point, "point coordinates")
    if len(xs) != n:
        raise InvalidInput(f"point {tuple(point)} has {len(xs)} coordinates, the piece {n}")
    scale = lcm(*(x.denominator for x in xs))
    augmented = [row + [int(x * scale) - scale * a]
                 for row, x, a in zip(piece.coordinate_matrix(), xs, v0)]
    reduced, pivots = rref(augmented)
    if len(pivots) != n or n in pivots:
        raise InvalidInput("coordinate matrix must be invertible")
    coords = [row[n] for row in reduced]
    p = len(piece.finite_vertices) - 1
    all_coords = [scale - sum(coords[:p])] + coords
    if any(c < 0 for c in all_coords):
        return "outside"
    if any(c == 0 for c in all_coords):
        return "boundary"
    return "interior"
