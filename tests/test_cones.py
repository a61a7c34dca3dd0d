"""The combinatorial pulling triangulation against the geometric one it
replaced, and the facet search it no longer repeats.

The oracle below re-derives the facets of every sub-cone it visits from the
generators' coordinates, by exhaustive kernel search within their span; the
package derives them from the facet incidences of the Newton polyhedron
alone. Both must give the same pieces in the same order.
"""

import sys
from itertools import combinations
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import newton_segre
from newton_segre import (TruncatedSeries, cone_decomposition, integrate_piece, linalg,
                          make_ideal, segre_class)
from newton_segre.cones import canonical_normal, cone_facets, pull_triangulation
from newton_segre.decompose import make_piece
from newton_segre.linalg import dot, kernel_basis, rref
from newton_segre.polyhedron import newton_polyhedron

N6_EIGHT = make_ideal(6, [(0, 3, 1, 4, 2, 0), (1, 0, 2, 2, 4, 3), (2, 2, 0, 1, 3, 4),
                          (3, 1, 4, 0, 1, 2), (4, 4, 3, 2, 0, 1), (1, 2, 3, 4, 1, 0),
                          (2, 0, 1, 3, 2, 4), (0, 4, 2, 1, 3, 3)])


def _oracle_facets(gens):
    """Incidence sets of the facets of the cone spanned by gens, relative to
    their linear span, sorted; empty in dimension 0 or 1."""
    _reduced, pivots = rref([list(g) for g in gens])
    d = len(pivots)
    if d <= 1:
        return []
    projected = [tuple(g[p] for p in pivots) for g in gens]
    found = set()
    for subset in combinations(range(len(gens)), d - 1):
        ker = kernel_basis([projected[s] for s in subset])
        if len(ker) != 1:
            continue
        y = canonical_normal(ker[0])
        sides = [dot(y, g) for g in projected]
        if all(s >= 0 for s in sides) or all(s <= 0 for s in sides):
            found.add(frozenset(i for i, s in enumerate(sides) if s == 0))
    return sorted(found, key=sorted)


def _oracle_triangulation(gens):
    def recurse(indices):
        sub = [gens[i] for i in indices]
        facets = _oracle_facets(sub)
        if not facets:
            return [[indices[0]]] if any(any(g) for g in sub) else []
        pieces = []
        for incidence in facets:
            if 0 in incidence:
                continue
            face = [indices[j] for j in range(len(indices)) if j in incidence]
            pieces.extend(tau + [indices[0]] for tau in recurse(face))
        return pieces

    return recurse(list(range(len(gens))))


def _oracle_decomposition(poly, vertex_order=None):
    """cone_decomposition with the homogenized facets triangulated geometrically."""
    n = poly.n
    order = list(poly.extreme_points) if vertex_order is None else list(vertex_order)
    key = (lambda v: v) if vertex_order is None else order.index
    pieces = []
    for facet in poly.diagram_facets:
        vertices = sorted((v for v in poly.extreme_points
                           if facet.value(v) == facet.offset), key=key)
        rays = [axis for axis in range(n) if facet.normal[axis] == 0]
        homog = [v + (1,) for v in vertices]
        homog += [tuple(int(i == axis) for i in range(n + 1)) for axis in rays]
        for idx in _oracle_triangulation(homog):
            verts = [(0,) * n] + [vertices[i] for i in idx if i < len(vertices)]
            axes = [rays[i - len(vertices)] for i in idx if i >= len(vertices)]
            pieces.append(make_piece(verts, axes))
    return pieces


@st.composite
def ideals_and_orders(draw):
    n = draw(st.integers(2, 5))
    exponent = st.integers(0, 4 if n < 5 else 3)
    gens = draw(st.lists(st.tuples(*[exponent] * n), min_size=1,
                         max_size=7 if n < 5 else 5))
    if draw(st.booleans()):  # m-primary: a pure power of every variable
        gens += [tuple(draw(st.integers(1, 5)) * (i == j) for i in range(n))
                 for j in range(n)]
    gens = [g for g in gens if any(g)] or [(1,) * n]
    poly = newton_polyhedron(make_ideal(n, gens))
    order = draw(st.none() | st.permutations(poly.extreme_points))
    return poly, order


@settings(max_examples=150, deadline=None)
@given(ideals_and_orders())
def test_triangulation_matches_geometric_oracle(case):
    poly, order = case
    assert cone_decomposition(poly, order) == _oracle_decomposition(poly, order)


def _pairwise_pull_triangulation(face, walls):
    """pull_triangulation with the maximality filter it had before the
    greedy one: a cut is kept unless some other cut contains it, a test of
    every pair of cuts."""
    if face & (face - 1) == 0:
        return [[face.bit_length() - 1]]
    cuts = {face & wall for wall in walls} - {face}
    facets = sorted((c for c in cuts if not any(c != d and c & d == c for d in cuts)),
                    key=lambda f: [i for i in range(f.bit_length()) if f >> i & 1])
    pivot = (face & -face).bit_length() - 1
    return [tau + [pivot]
            for facet in facets if not facet >> pivot & 1
            for tau in _pairwise_pull_triangulation(facet, cuts)]


@settings(max_examples=150, deadline=None)
@given(ideals_and_orders())
def test_greedy_maximal_cuts_match_the_pairwise_filter(case):
    """The same pieces in the same order, in the default and the reversed
    vertex order."""
    poly, _order = case
    decompose = sys.modules["newton_segre.decompose"]
    for order in (None, sorted(poly.extreme_points, reverse=True)):
        greedy = cone_decomposition(poly, order)
        with mock.patch.object(decompose, "pull_triangulation", _pairwise_pull_triangulation):
            assert greedy == cone_decomposition(poly, order)


@settings(max_examples=100, deadline=None)
@given(ideals_and_orders())
def test_decomposition_pieces_are_the_checked_pieces(case):
    """cone_decomposition builds its pieces without make_piece's checks;
    make_piece on the same vertices and rays gives the same pieces."""
    poly, order = case
    for piece in cone_decomposition(poly, order):
        assert make_piece(piece.finite_vertices, sorted(piece.ray_axes)) == piece


def test_n6_triangulation_matches_geometric_oracle():
    """Hypothesis stops at n = 5; the n = 6 ideal N6_EIGHT in two vertex
    orders, each summing to the same pinned pushforward."""
    poly = newton_polyhedron(N6_EIGHT)
    for order, count in ((None, 99), (sorted(poly.extreme_points, reverse=True), 106)):
        pieces = cone_decomposition(poly, order)
        assert pieces == _oracle_decomposition(poly, order)
        assert len(pieces) == count
        total = TruncatedSeries.zero(6, 6)
        for piece in pieces:
            total = total + integrate_piece(piece, 6, 6)
        assert total.pushforward(6) == (0, 58, -745, 5198, 4687, -878553)


def _count_calls(monkeypatch, function, calls):
    """Count calls of function through every package namespace holding it."""
    def counting(*args):
        calls.append(function.__name__)
        return function(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == newton_segre.__name__:
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, counting)


def test_one_facet_search_per_segre_class(monkeypatch):
    calls = []
    _count_calls(monkeypatch, cone_facets, calls)
    cases = [(make_ideal(2, [(3, 0), (1, 1), (0, 2)]), 2),
             (make_ideal(3, [(2, 0, 1), (0, 3, 0), (1, 1, 1)]), 3),
             (make_ideal(5, [(0, 2, 2, 3, 3), (0, 2, 4, 4, 1), (1, 0, 4, 2, 0),
                             (2, 1, 1, 1, 4), (2, 2, 0, 4, 4), (4, 1, 1, 1, 1)]), 5),
             (N6_EIGHT, 6)]
    for ideal, ambient in cases:
        newton_polyhedron.cache_clear()
        calls.clear()
        result = segre_class(ideal, ambient_dim=ambient)
        assert result.pieces
        assert calls == ["cone_facets"]


def test_pull_triangulation_does_no_linear_algebra(monkeypatch):
    calls = []
    for name in ("rref", "rank", "kernel_basis", "det", "dot", "_eliminate"):
        _count_calls(monkeypatch, getattr(linalg, name), calls)
    # the homogenized cone of P = conv{(0,2), (1,1), (3,0)} + orthant:
    # generators (0,2,1), (1,1,1), (3,0,1), (1,0,0), (0,1,0), and its facets
    # as generator bitmasks: two diagram edges, two axes, the hyperplane at
    # infinity
    walls = [sum(1 << i for i in w) for w in ({0, 1}, {1, 2}, {0, 4}, {2, 3}, {3, 4})]
    assert pull_triangulation(0b11111, walls) == [[2, 1, 0], [3, 2, 0], [4, 3, 0]]
    assert calls == []


def test_cone_decomposition_evaluates_no_facet(monkeypatch):
    """The triangulated faces come from the stored walls: no Facet.value and
    no other dot product once the polyhedron is built."""
    polys = [newton_polyhedron(make_ideal(3, [(2, 0, 1), (0, 3, 0), (1, 1, 1)])),
             newton_polyhedron(make_ideal(4, [(2, 0, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0),
                                              (0, 1, 0, 1), (0, 0, 2, 2)])),
             newton_polyhedron(N6_EIGHT)]
    calls = []
    _count_calls(monkeypatch, linalg.dot, calls)
    for poly in polys:
        assert cone_decomposition(poly)
    assert calls == []
