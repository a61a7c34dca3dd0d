import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newton_segre import (TruncatedSeries, cone_decomposition, in_newton_region,
                          integrate_piece, make_ideal, make_piece,
                          newton_polyhedron)
from newton_segre.decompose import piece_membership
from tests.conftest import random_ideal
from tests.test_linalg import oracle_rref

ORIGIN2 = (F(0), F(0))


def as_key(piece):
    return (frozenset(piece.finite_vertices), frozenset(piece.ray_axes))


def test_diagonal_single_triangle():
    pieces = cone_decomposition(newton_polyhedron(make_ideal(2, [(3, 0), (0, 2)])))
    assert len(pieces) == 1
    piece = pieces[0]
    assert frozenset(piece.finite_vertices) == frozenset(
        {ORIGIN2, (F(3), F(0)), (F(0), F(2))})
    assert piece.ray_axes == frozenset()
    assert piece.jacobian == 6


def test_translated_orthant_splits_into_two_ray_pieces():
    pieces = cone_decomposition(newton_polyhedron(make_ideal(2, [(1, 1)])))
    keys = {as_key(p) for p in pieces}
    assert keys == {
        (frozenset({ORIGIN2, (F(1), F(1))}), frozenset({0})),
        (frozenset({ORIGIN2, (F(1), F(1))}), frozenset({1})),
    }
    assert all(p.jacobian == 1 for p in pieces)


def test_staircase_triangle_plus_ray_piece():
    pieces = cone_decomposition(newton_polyhedron(make_ideal(2, [(2, 0), (1, 1)])))
    keys = {as_key(p) for p in pieces}
    assert keys == {
        (frozenset({ORIGIN2, (F(2), F(0)), (F(1), F(1))}), frozenset()),
        (frozenset({ORIGIN2, (F(1), F(1))}), frozenset({1})),
    }


def test_piece_shape_counts(rng):
    for _ in range(25):
        ideal = random_ideal(rng)
        for piece in cone_decomposition(newton_polyhedron(ideal)):
            assert len(piece.finite_vertices) - 1 + len(piece.ray_axes) == ideal.n
            assert piece.jacobian > 0
            assert piece.finite_vertices[0] == tuple([F(0)] * ideal.n)


def test_make_piece_validates_shape():
    with pytest.raises(ValueError):
        make_piece([(F(0), F(0)), (F(1), F(1))], [])  # p+q = 1 != 2


def _coverage_counts(ideal, points):
    poly = newton_polyhedron(ideal)
    pieces = cone_decomposition(poly)
    good = 0
    for point in points:
        verdicts = [piece_membership(p, point) for p in pieces]
        interior = sum(1 for v in verdicts if v == "interior")
        boundary = sum(1 for v in verdicts if v == "boundary")
        in_region = in_newton_region(ideal, point)
        if in_region:
            assert interior == 1 or (interior == 0 and boundary >= 1), \
                f"{point} in region but piece count wrong: {verdicts}"
        else:
            assert interior == 0 and boundary == 0, \
                f"{point} outside region but inside pieces: {verdicts}"
        good += 1
    return good


_PARTITION_GENS = [
    [(3, 0), (0, 2)],
    [(1, 1)],
    [(2, 0), (1, 1)],
    [(4, 0), (2, 1), (1, 3)],
    [(1, 1, 1)],
    [(2, 0, 0), (0, 3, 0), (0, 0, 4)],
    [(2, 0, 0), (1, 1, 0), (0, 0, 3)],
    # facet with a recession ray inside the span of its vertex hull
    [(0, 3, 1), (1, 2, 0), (3, 0, 2)],
]


def _partition_points(gens):
    """250 seeded orthant points on the grid of sixths around the generators."""
    rng = random.Random(hash(tuple(map(tuple, gens))) & 0xFFFF)
    top = max(max(g) for g in gens) + 2
    return [tuple(F(rng.randint(0, 6 * top), 6) for _ in range(len(gens[0])))
            for _ in range(250)]


@pytest.mark.parametrize("gens", _PARTITION_GENS)
def test_exact_partition_of_region(gens):
    """Exact check: each orthant point is in the region iff it lands in
    exactly one piece interior or on a piece boundary."""
    ideal = make_ideal(len(gens[0]), gens)
    assert _coverage_counts(ideal, _partition_points(gens)) == 250


def _oracle_membership(piece, point):
    """piece_membership on rational rows: the point's simplex coordinates
    from Fraction Gauss-Jordan elimination, lambda_0 = 1 - sum(lambda)."""
    n = piece.n
    v0 = piece.finite_vertices[0]
    rhs = [F(x) - a for x, a in zip(point, v0)]
    m = piece.coordinate_matrix()
    augmented = [row + [rhs[i]] for i, row in enumerate(m)]
    reduced, pivots = oracle_rref(augmented)
    assert len(pivots) == n and n not in pivots
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


@pytest.mark.parametrize("gens", _PARTITION_GENS)
def test_membership_matches_the_fraction_oracle(gens):
    """The integer elimination on the L-scaled point gives the Fraction
    oracle's verdict for every piece and point of the partition test."""
    pieces = cone_decomposition(newton_polyhedron(make_ideal(len(gens[0]), gens)))
    verdicts = set()
    for point in _partition_points(gens):
        for piece in pieces:
            verdict = piece_membership(piece, point)
            assert verdict == _oracle_membership(piece, point), (piece, point)
            verdicts.add(verdict)
    assert verdicts == {"interior", "boundary", "outside"}


def test_float_partition_at_scale():
    """100k random points per ideal, float arithmetic, margins excluded."""
    rng = np.random.default_rng(7)
    for gens in ([(3, 0), (0, 2)], [(2, 0), (1, 1)],
                 [(2, 0, 0), (1, 1, 0), (0, 0, 3)], [(0, 3, 1), (1, 2, 0), (3, 0, 2)]):
        n = len(gens[0])
        ideal = make_ideal(n, gens)
        poly = newton_polyhedron(ideal)
        pieces = cone_decomposition(poly)
        top = max(max(g) for g in gens) + 1.5
        pts = rng.uniform(0.0, top, size=(100_000, n))

        # region membership: min over diagram facets of (w.p - c) <= 0
        margins = []
        region_vals = []
        for f in poly.diagram_facets:
            w = np.array([float(x) for x in f.normal])
            region_vals.append(pts @ w - float(f.offset))
        region_vals = np.stack(region_vals, axis=1)
        in_region = np.min(region_vals, axis=1) <= 0
        margins.append(np.min(np.abs(region_vals), axis=1))

        interior_counts = np.zeros(len(pts), dtype=np.int64)
        boundary_near = np.zeros(len(pts), dtype=bool)
        eps = 1e-9
        for piece in pieces:
            matrix = np.array([[float(x) for x in row]
                               for row in piece.coordinate_matrix()])
            coords = np.linalg.solve(matrix, pts.T).T
            p = len(piece.finite_vertices) - 1
            lam0 = 1.0 - coords[:, :p].sum(axis=1)
            allc = np.concatenate([lam0[:, None], coords], axis=1)
            interior_counts += np.all(allc > eps, axis=1)
            boundary_near |= np.any(np.abs(allc) <= eps, axis=1)
        margins.append(np.where(boundary_near, 0.0, 1.0))

        clear = (margins[0] > 1e-7) & ~boundary_near
        agree_in = in_region[clear] == (interior_counts[clear] == 1)
        agree_out = ~in_region[clear] == (interior_counts[clear] == 0)
        assert np.all(agree_in) and np.all(agree_out)
        # no point, boundary or not, may sit in two interiors
        assert int(interior_counts.max()) <= 1


def test_triangulation_invariance(rng):
    """Permuting the vertex insertion order changes pieces, not the sum."""
    for gens in ([(4, 0), (2, 1), (1, 3)], [(2, 0, 0), (1, 1, 0), (0, 0, 3)],
                 [(0, 3, 1), (1, 2, 0), (3, 0, 2)]):
        ideal = make_ideal(len(gens[0]), gens)
        poly = newton_polyhedron(ideal)
        base_pieces = cone_decomposition(poly)
        bound = ideal.n + 2
        base = TruncatedSeries.zero(ideal.n, bound)
        for piece in base_pieces:
            base = base + integrate_piece(piece, ideal.n, bound)
        for _ in range(4):
            order = list(poly.extreme_points)
            rng.shuffle(order)
            other_pieces = cone_decomposition(poly, vertex_order=order)
            total = TruncatedSeries.zero(ideal.n, bound)
            for piece in other_pieces:
                total = total + integrate_piece(piece, ideal.n, bound)
            assert total == base


@st.composite
def _polyhedra_and_orders(draw):
    n = draw(st.integers(2, 4))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=6))
    if draw(st.booleans()):  # m-primary: a pure power of every variable
        gens += [tuple(draw(st.integers(1, 5)) * (i == j) for i in range(n))
                 for j in range(n)]
    poly = newton_polyhedron(make_ideal(n, [g for g in gens if any(g)] or [(1,) * n]))
    return poly, draw(st.permutations(poly.extreme_points))


@settings(max_examples=150)
@given(_polyhedra_and_orders())
def test_segre_series_ignores_vertex_order(case):
    """Any insertion order of the extreme points gives the default-order series."""
    poly, order = case
    bound = poly.n + 2

    def series(pieces):
        total = TruncatedSeries.zero(poly.n, bound)
        for piece in pieces:
            total = total + integrate_piece(piece, poly.n, bound)
        return total

    assert series(cone_decomposition(poly, order)) == series(cone_decomposition(poly))
