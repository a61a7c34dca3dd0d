import math
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from newton_segre import (AmbientTooSmall, InvalidInput, NonPositiveParameter,
                          TruncatedSeries, cone_decomposition, evaluate,
                          integrate_piece, make_ideal, make_piece,
                          newton_polyhedron, segre_class)
from newton_segre.segre import piece_value
from tests.conftest import random_ideal


def divisor_pushforward(d: int, top: int) -> tuple:
    """d*H / (1 + d*H) truncated: coefficients d, -d^2, d^3, ..."""
    return tuple(F(d) * F(-d) ** (k - 1) for k in range(1, top + 1))


def test_pure_power_series_both_embeddings():
    for ell in range(1, 5):
        one_var = segre_class(make_ideal(1, [(ell,)]), ambient_dim=4)
        two_var = segre_class(make_ideal(2, [(ell, 0)]), ambient_dim=4)
        assert one_var.pushforward == divisor_pushforward(ell, 4)
        assert two_var.pushforward == one_var.pushforward


def test_segment_expansion_matches_geometric_series():
    result = segre_class(make_ideal(1, [(2,)]), ambient_dim=5)
    assert [result.multivariate.coefficient((k,)) for k in range(6)] == \
        [0, 2, -4, 8, -16, 32]


def test_diagonal_closed_form():
    l1, l2, top = 2, 3, 5
    result = segre_class(make_ideal(2, [(l1, 0), (0, l2)]), ambient_dim=top)
    expected = (TruncatedSeries(2, top, {(1, 1): l1 * l2})
                * TruncatedSeries(2, top, {(0, 0): 1, (1, 0): l1}).inverse()
                * TruncatedSeries(2, top, {(0, 0): 1, (0, 1): l2}).inverse())
    assert result.multivariate == expected


def test_crossing_divisor_multivariate():
    # (x1 x2): (X1 + X2)/(1 + X1 + X2), pushforward 2H/(1+2H)
    top = 3
    result = segre_class(make_ideal(2, [(1, 1)]), ambient_dim=top)
    expected = (TruncatedSeries(2, top, {(1, 0): 1, (0, 1): 1})
                * TruncatedSeries(2, top, {(0, 0): 1, (1, 0): 1, (0, 1): 1}).inverse())
    assert result.multivariate == expected
    assert result.pushforward == divisor_pushforward(2, top)


def test_divisor_law_random_principal(rng):
    for _ in range(20):
        n = rng.randint(1, 3)
        vec = tuple(rng.randint(0, 10) for _ in range(n))
        if not any(vec):
            continue
        d = sum(vec)
        result = segre_class(make_ideal(n, [vec]), ambient_dim=4)
        assert result.pushforward == divisor_pushforward(d, 4)


def test_orthant_normalization_for_principal_ideals(rng):
    """Region pieces plus the polyhedron piece integrate to exactly 1."""
    for _ in range(15):
        n = rng.randint(1, 3)
        vec = tuple(rng.randint(0, 6) for _ in range(n))
        if not any(vec):
            continue
        bound = 6
        result = segre_class(make_ideal(n, [vec]), ambient_dim=bound)
        # for (x^v) the polyhedron itself is v + orthant: one ray-only piece
        poly_piece = make_piece([tuple(F(e) for e in vec)], list(range(n)))
        total = result.multivariate + integrate_piece(poly_piece, n, bound)
        assert total == TruncatedSeries.constant(n, bound, 1)


def test_piece_vertices_are_canonical():
    """An integral vertex given as Fractions is stored as ints, so the piece
    expands the same as the one built from ints, whatever ran before."""
    from_fractions = make_piece([(F(2), F(1))], [0, 1])
    from_ints = make_piece([(2, 1)], [0, 1])
    assert all(type(x) is int for x in from_fractions.finite_vertices[0])
    assert integrate_piece(from_fractions, 2, 4) == integrate_piece(from_ints, 2, 4)


def test_region_and_polyhedron_partition_unity():
    """The region pieces and a triangulation of the polyhedron itself must
    integrate to exactly 1 together: two different decompositions feeding
    the same closed form, checked at rational parameters."""
    from newton_segre.cones import pull_triangulation
    from newton_segre.polyhedron import newton_polyhedron

    cases = [
        (2, [(3, 0), (0, 2)]),
        (2, [(2, 0), (1, 1)]),
        (3, [(2, 0, 0), (1, 1, 0), (0, 0, 3)]),
        (4, [(2, 0, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 2, 2)]),
    ]
    for n, gens in cases:
        ideal = make_ideal(n, gens)
        poly = newton_polyhedron(ideal)
        X = [F(1, k + 2) for k in range(n)]

        # the homogenized cone of P: extreme points (v, 1) then axis rays
        # (e_k, 0); its facets as generator bitmasks are those of P, each with
        # the rays parallel to it, and the hyperplane at infinity
        k = len(poly.extreme_points)
        walls = [sum(1 << i for i, v in enumerate(poly.extreme_points)
                     if f.value(v) == f.offset)
                 + sum(1 << (k + axis) for axis in range(n) if f.normal[axis] == 0)
                 for f in poly.facets]
        walls.append(sum(1 << (k + axis) for axis in range(n)))
        over_polyhedron = F(0)
        for idx in pull_triangulation((1 << (k + n)) - 1, walls):
            verts = [poly.extreme_points[i] for i in idx if i < k]
            rays = [i - k for i in idx if i >= k]
            piece = make_piece([tuple(F(c) for c in v) for v in verts], rays)
            over_polyhedron += piece_value(piece, X)

        over_region = evaluate(segre_class(ideal, ambient_dim=n), X)
        assert over_region + over_polyhedron == 1


def test_evaluate_examples():
    result = segre_class(make_ideal(1, [(2,)]), ambient_dim=3)
    assert evaluate(result, [F(1, 2)]) == F(1, 2)

    crossing = segre_class(make_ideal(2, [(1, 1)]), ambient_dim=3)
    assert evaluate(crossing, [F(1), F(1)]) == F(2, 3)

    tiny = evaluate(crossing, [F(1, 10 ** 6), F(1, 10 ** 6)])
    assert 0 < tiny < F(1, 100_000)  # no constant term: vanishes at X -> 0


def test_evaluate_rejects_nonpositive():
    result = segre_class(make_ideal(1, [(1,)]), ambient_dim=2)
    with pytest.raises(NonPositiveParameter):
        evaluate(result, [F(0)])
    with pytest.raises(NonPositiveParameter):
        evaluate(result, [-1.0])


def test_float_point_is_read_exactly():
    """A float coordinate is read as the rational it stores, and the exact
    sum is converted to float once; products like X1*X2 never overflow."""
    result = segre_class(make_ideal(2, [(2, 0), (1, 1), (0, 3)]), ambient_dim=2)
    for X in ([0.1, 0.3], [1e200, 1e200], [1e-300, 2.5]):
        value = evaluate(result, X)
        assert type(value) is float
        assert value == float(evaluate(result, [F(x) for x in X]))
    assert evaluate(result, [F(1, 3), 0.5]) == float(evaluate(result, [F(1, 3), F(1, 2)]))
    for bad in (math.inf, math.nan, "1"):
        with pytest.raises(InvalidInput):
            evaluate(result, [F(1), bad])


def oracle_piece_value(piece, X) -> F:
    """jacobian * prod_{i not in K} X_i / prod_k (1 + v_k . X), in Fractions."""
    value = F(piece.jacobian)
    for axis in range(piece.n):
        if axis not in piece.ray_axes:
            value *= X[axis]
    for vertex in piece.finite_vertices:
        value /= 1 + sum(v * x for v, x in zip(vertex, X))
    return value


@st.composite
def _pieces_and_points(draw):
    n = draw(st.integers(1, 3))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 5)] * n), min_size=1, max_size=5))
    pieces = cone_decomposition(newton_polyhedron(
        make_ideal(n, [g for g in gens if any(g)] or [(1,) * n])))
    rationals = draw(st.lists(st.fractions(F(1, 10 ** 4), 10 ** 4, max_denominator=10 ** 4),
                              min_size=n, max_size=n))
    floats = draw(st.lists(st.floats(1e-300, 1e300), min_size=n, max_size=n))
    return pieces, rationals, floats


@given(_pieces_and_points())
def test_values_match_per_piece_fraction_oracle(case):
    """evaluate and piece_value are the per-piece Fraction closed forms, summed
    exactly: equal at rational X, and the float of the exact value at float X."""
    pieces, rationals, floats = case
    stored = [F(x) for x in floats]  # the rationals the floats store
    for piece in pieces:
        assert piece_value(piece, rationals) == oracle_piece_value(piece, rationals)
        value = piece_value(piece, floats)
        assert type(value) is float and value == float(oracle_piece_value(piece, stored))
    assert evaluate(pieces, rationals) == sum(
        (oracle_piece_value(piece, rationals) for piece in pieces), F(0))
    value = evaluate(pieces, floats)
    assert type(value) is float
    assert value == float(sum((oracle_piece_value(piece, stored) for piece in pieces), F(0)))
    for wrong in (rationals + [F(1)], floats[1:]):
        with pytest.raises(InvalidInput):
            piece_value(pieces[0], wrong)
        with pytest.raises(InvalidInput):
            evaluate(pieces, wrong)


def test_ambient_too_small():
    with pytest.raises(AmbientTooSmall):
        segre_class(make_ideal(3, [(1, 1, 1)]), ambient_dim=1)


@pytest.mark.parametrize("n, gens, pushforward, terms", [
    (2, [(2, 0), (0, 3)], (0,), []),
    (2, [(2, 0), (1, 1)], (1,), [((1, 0), 1)]),
    (3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)], (0, 0), []),
    (3, [(1, 1, 0), (0, 1, 1)], (1, 0), [((0, 1, 0), 1), ((0, 2, 0), -1), ((1, 0, 1), 1)]),
])
def test_smallest_ambient(n, gens, pushforward, terms):
    """At ambient n - 1 the start monomial X_1..X_n of a piece without rays
    lies above the degree bound, so that piece adds nothing."""
    result = segre_class(make_ideal(n, gens), ambient_dim=n - 1)
    assert result.pushforward == pushforward
    assert result.multivariate.terms() == terms


@pytest.mark.parametrize("n, gens, built", [
    (2, [(2, 0), (1, 1), (0, 3)], 3),
    (3, [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)], 2),
])
def test_segre_class_types_one_series_per_piece(monkeypatch, n, gens, built):
    """Each piece is expanded on a plain dict and typed once, and the sum
    once: pieces + 1 series, none per division."""
    calls = []
    init = TruncatedSeries.__init__
    monkeypatch.setattr(TruncatedSeries, "__init__",
                        lambda self, *args: calls.append(args) or init(self, *args))
    result = segre_class(make_ideal(n, gens), ambient_dim=n)
    assert len(calls) == len(result.pieces) + 1 == built


def test_constant_term_always_zero(rng):
    for _ in range(20):
        ideal = random_ideal(rng)
        result = segre_class(ideal, ambient_dim=ideal.n + 1)
        assert result.multivariate.coefficient((0,) * ideal.n) == 0


def brute_force_height(ideal) -> int:
    """Smallest set of variables meeting every generator's support."""
    supports = [frozenset(i for i, e in enumerate(g) if e) for g in ideal.generators]
    for size in range(1, ideal.n + 1):
        for cover in combinations(range(ideal.n), size):
            if all(s & set(cover) for s in supports):
                return size
    raise AssertionError("no cover found")


def test_lowest_degree_equals_height(rng):
    for _ in range(30):
        ideal = random_ideal(rng)
        result = segre_class(ideal, ambient_dim=ideal.n + 1)
        lowest = next(k + 1 for k, c in enumerate(result.pushforward) if c != 0)
        assert lowest == brute_force_height(ideal)



def test_random_n5_ideal_pinned():
    """A random n=5 ideal with 6 generators (the benchmark calibration's
    N5_RANDOM): pinned pushforward and piece count, and the same series from
    the decomposition with the reversed vertex order."""
    ideal = make_ideal(5, [(0, 2, 2, 3, 3), (0, 2, 4, 4, 1), (1, 0, 4, 2, 0),
                           (2, 1, 1, 1, 4), (2, 2, 0, 4, 4), (4, 1, 1, 1, 1)])
    result = segre_class(ideal, ambient_dim=5)
    assert result.pushforward == (1, 29, -379, 3005, -13783)
    assert len(result.pieces) == 34

    poly = newton_polyhedron(ideal)
    order = sorted(poly.extreme_points, reverse=True)
    reordered = TruncatedSeries.zero(5, 5)
    for piece in cone_decomposition(poly, vertex_order=order):
        reordered = reordered + integrate_piece(piece, 5, 5)
    assert reordered == result.multivariate
