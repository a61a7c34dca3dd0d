from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newton_segre import (NegativeCoordinate, contains, contains_lp, diagonal_exit,
                          feasible, in_newton_region, make_ideal, newton_polyhedron,
                          polyhedron_to_json, solve_lp, stretch)
from tests.conftest import random_ideal, random_rational


def diagram(poly):
    return {(tuple(f.normal), f.offset) for f in poly.diagram_facets}


def test_pure_powers_two_vars():
    poly = newton_polyhedron(make_ideal(2, [(3, 0), (0, 2)]))
    assert set(poly.extreme_points) == {(3, 0), (0, 2)}
    # a1/3 + a2/2 >= 1, cleared to 2a1 + 3a2 >= 6
    assert ((F(2), F(3)), F(6)) in diagram(poly)
    assert len(poly.diagram_facets) == 1


def test_translated_orthant():
    poly = newton_polyhedron(make_ideal(2, [(1, 1)]))
    assert poly.extreme_points == ((1, 1),)
    assert diagram(poly) == {((F(1), F(0)), F(1)), ((F(0), F(1)), F(1))}
    assert all(f.is_diagram for f in poly.facets)


def test_two_generator_staircase():
    poly = newton_polyhedron(make_ideal(2, [(2, 0), (1, 1)]))
    assert set(poly.extreme_points) == {(2, 0), (1, 1)}
    assert diagram(poly) == {((F(1), F(1)), F(2)), ((F(1), F(0)), F(1))}


def test_interior_generator_not_extreme():
    poly = newton_polyhedron(make_ideal(2, [(2, 0), (1, 1), (0, 2)]))
    assert set(poly.extreme_points) == {(2, 0), (0, 2)}


def test_single_variable():
    poly = newton_polyhedron(make_ideal(1, [(4,)]))
    assert poly.extreme_points == ((4,),)
    assert diagram(poly) == {((F(1),), F(4))}


def test_facet_hyperplanes_have_enough_incidence():
    """Every facet must contain n affinely independent elements: n extreme
    points and parallel axis directions combined."""
    for gens in ([(2, 0), (1, 1)], [(1, 1, 1)], [(2, 0, 0), (0, 3, 0), (0, 0, 4)]):
        ideal = make_ideal(len(gens[0]), gens)
        poly = newton_polyhedron(ideal)
        for facet in poly.facets:
            on_plane = sum(1 for v in poly.extreme_points
                           if facet.value(v) == facet.offset)
            parallel_rays = sum(1 for w in facet.normal if w == 0)
            assert on_plane + parallel_rays >= poly.n


def test_contains_boundary_point():
    poly = newton_polyhedron(make_ideal(1, [(3,)]))
    assert contains(poly, (F(3),))
    assert not contains(poly, (F(2, 1),))


def test_contains_below_vertex():
    poly = newton_polyhedron(make_ideal(2, [(1, 1)]))
    assert not contains(poly, (F(1, 2), F(1, 2)))
    assert not contains_lp(poly, (F(1, 2), F(1, 2)))


def test_contains_both_routes_on_staircase():
    poly = newton_polyhedron(make_ideal(2, [(2, 0), (1, 1)]))
    point = (F(3, 2), F(1, 2))
    assert contains(poly, point)
    assert contains_lp(poly, point)


def test_membership_routes_agree_outside_orthant():
    poly = newton_polyhedron(make_ideal(2, [(1, 1)]))
    for point in [(F(-1), F(5)), (F(2), F(-3))]:
        assert not contains(poly, point)
        assert not contains_lp(poly, point)


def test_facet_and_lp_membership_agree(rng):
    """1000 random rational points across random ideals, exact agreement."""
    checked = 0
    while checked < 1000:
        ideal = random_ideal(rng)
        poly = newton_polyhedron(ideal)
        for _ in range(25):
            point = tuple(random_rational(rng) for _ in range(ideal.n))
            assert contains(poly, point) == contains_lp(poly, point)
            checked += 1


@st.composite
def _ideals(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 5)] * n), min_size=1, max_size=6))
    if draw(st.booleans()):  # m-primary: a pure power of every variable
        gens += [tuple(draw(st.integers(1, 6)) * (i == j) for i in range(n))
                 for j in range(n)]
    return make_ideal(n, [g for g in gens if any(g)] or [(1,) * n])


@settings(max_examples=100, deadline=None)
@given(_ideals(max_n=5))
def test_walls_are_the_facet_incidences(ideal):
    """walls[j] has the bits of the extreme points on facets[j] and of the
    axis rays parallel to it; the last wall, the hyperplane at infinity,
    those of every ray."""
    poly = newton_polyhedron(ideal)
    k = len(poly.extreme_points)
    expected = [sum(1 << i for i, v in enumerate(poly.extreme_points)
                    if f.value(v) == f.offset)
                + sum(1 << (k + axis) for axis in range(poly.n) if f.normal[axis] == 0)
                for f in poly.facets]
    assert poly.walls == (*expected, sum(1 << (k + axis) for axis in range(poly.n)))


@st.composite
def _ideals_with_midpoints(draw):
    """Random generators and the ceil-midpoints of some pairs of them, which
    lie on a facet of P or strictly inside it."""
    n = draw(st.integers(1, 5))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 5)] * n), min_size=1, max_size=5))
    pairs = draw(st.lists(st.tuples(st.sampled_from(gens), st.sampled_from(gens)),
                          max_size=3))
    gens += [tuple(-(-(a + b) // 2) for a, b in zip(u, v)) for u, v in pairs]
    return make_ideal(n, [g for g in gens if any(g)] or [(1,) * n])


@settings(max_examples=150, deadline=None)
@given(_ideals_with_midpoints())
def test_extreme_points_match_the_lp_oracle(ideal):
    """The extreme points read off the face lattice are the generators that
    the packing LP puts outside conv(the other generators) + orthant."""
    others = {v: [u for u in ideal.generators if u != v] for v in ideal.generators}
    by_lp = tuple(v for v, rest in others.items() if not rest or not feasible(rest, v))
    assert newton_polyhedron(ideal).extreme_points == by_lp


def _boundary_points(poly):
    """Generators, the diagonal exit point and midpoints of extreme points
    sharing a diagram facet: points on the boundary of the polyhedron."""
    sigma = max(F(f.offset, sum(f.normal)) for f in poly.diagram_facets)
    points = [tuple(F(x) for x in v) for v in poly.extreme_points]
    points.append((sigma,) * poly.n)
    for f in poly.diagram_facets:
        on_facet = [v for v in poly.extreme_points if f.value(v) == f.offset]
        points += [tuple(F(a + b, 2) for a, b in zip(u, v))
                   for u, v in combinations(on_facet, 2)]
    return sigma, points


@settings(max_examples=150)
@given(_ideals(), st.data())
def test_lp_and_facet_membership_agree_near_the_boundary(ideal, data):
    """The packing LP and the facet inequalities decide membership alike on
    boundary points and on points 1/97 off them, and the LP's diagonal exit
    is the facets' one."""
    poly = newton_polyhedron(ideal)
    sigma, points = _boundary_points(poly)
    assert 1 / solve_lp(poly.extreme_points) == sigma == diagonal_exit(poly)
    step = F(1, 97)
    for p in points:
        axis = data.draw(st.integers(0, poly.n - 1))
        moves = [(0,) * poly.n, (step,) * poly.n, (-step,) * poly.n,
                 tuple(step * (i == axis) for i in range(poly.n)),
                 tuple(-step * (i == axis) for i in range(poly.n))]
        for move in moves:
            q = tuple(a + b for a, b in zip(p, move))
            assert contains(poly, q) == contains_lp(poly, q), q


def test_stretch_compatibility(rng):
    """Membership commutes with coordinatewise stretching."""
    for _ in range(40):
        ideal = random_ideal(rng)
        factors = tuple(rng.randint(1, 4) for _ in range(ideal.n))
        poly = newton_polyhedron(ideal)
        stretched = newton_polyhedron(stretch(ideal, factors))
        for _ in range(10):
            point = tuple(random_rational(rng) for _ in range(ideal.n))
            scaled = tuple(r * x for r, x in zip(factors, point))
            assert contains(poly, point) == contains(stretched, scaled)


# ---- Newton region ---------------------------------------------------------

def test_region_below_pure_power():
    ideal = make_ideal(1, [(3,)])
    assert in_newton_region(ideal, (F(7, 3),))   # a1 < m*l at m=3, a1=7
    assert in_newton_region(ideal, (F(3),))      # boundary belongs to both
    assert not in_newton_region(ideal, (F(10, 3),))


def test_region_boundary_of_diagonal():
    ideal = make_ideal(2, [(2, 0), (0, 2)])
    assert in_newton_region(ideal, (F(1), F(1)))  # on a1/2 + a2/2 = 1
    poly = newton_polyhedron(ideal)
    assert contains(poly, (F(1), F(1)))


def test_region_unbounded_slab():
    assert in_newton_region(make_ideal(2, [(1, 1)]), (F(1, 2), F(100)))


def test_region_rejects_negative():
    with pytest.raises(NegativeCoordinate):
        in_newton_region(make_ideal(2, [(1, 1)]), (F(-1), F(1)))


def test_wrong_arity_rejected():
    from newton_segre import DimensionMismatch

    poly = newton_polyhedron(make_ideal(2, [(1, 1)]))
    with pytest.raises(DimensionMismatch):
        contains(poly, (F(1),))
    with pytest.raises(DimensionMismatch):
        in_newton_region(make_ideal(2, [(1, 1)]), (F(1), F(1), F(1)))


def test_region_star_shaped(rng):
    """Scaling toward the origin never leaves the region."""
    for _ in range(30):
        ideal = random_ideal(rng)
        for _ in range(10):
            point = tuple(random_rational(rng) for _ in range(ideal.n))
            if not in_newton_region(ideal, point):
                continue
            t = random_rational(rng, 0, 1, max_den=7)
            if t > 1:
                continue
            assert in_newton_region(ideal, tuple(t * x for x in point))


def test_region_complements_interior(rng):
    """A point is in the region iff no neighborhood of it avoids ... more
    concretely: region and strict interior of the polyhedron partition the
    orthant."""
    for _ in range(25):
        ideal = random_ideal(rng)
        poly = newton_polyhedron(ideal)
        for _ in range(12):
            point = tuple(random_rational(rng) for _ in range(ideal.n))
            strict_inside = all(f.value(point) > f.offset for f in poly.diagram_facets)
            assert in_newton_region(ideal, point) == (not strict_inside)


def test_json_dump_shape():
    payload = polyhedron_to_json(newton_polyhedron(make_ideal(2, [(2, 0), (0, 3)])))
    assert payload["extreme_points"] == [[0, 3], [2, 0]]
    diagram_facets = [f for f in payload["facets"] if f["diagram"]]
    assert diagram_facets == [{"normal": ["1/2", "1/3"], "offset": "1", "diagram": True}]
    coordinate = [f for f in payload["facets"] if not f["diagram"]]
    assert {tuple(f["normal"]) for f in coordinate} == {("1", "0"), ("0", "1")}
