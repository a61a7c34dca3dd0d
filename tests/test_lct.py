import math
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import pytest

from newton_segre import (diagonal_exit, in_newton_region, lct, lct_condition,
                          make_ideal, newton_polyhedron,
                          region_condition_via_lct, stretch)
from tests.conftest import random_ideal, subprocess_env


def test_diagonal_exit_pure_power():
    for ell in range(1, 7):
        poly = newton_polyhedron(make_ideal(1, [(ell,)]))
        assert diagonal_exit(poly) == ell


def test_facet_cross_check_survives_optimize():
    # the LP-vs-facets check guards the facet enumeration; it must not be an
    # assert, so it is run here with assertions stripped
    script = textwrap.dedent("""
        from newton_segre import (Facet, InternalInconsistency, NewtonPolyhedron,
                                  diagonal_exit)
        # (x1^2, x2^3) with its diagram facet 3 a1 + 2 a2 >= 6 moved to 7
        poly = NewtonPolyhedron(2, ((0, 3), (2, 0)), (
            Facet((0, 1), 0), Facet((1, 0), 0), Facet((3, 2), 7)),
            (0b0110, 0b1001, 0b0011, 0b1100), ((0, 3), (2, 0)))
        try:
            diagonal_exit(poly)
        except InternalInconsistency as exc:
            print(__debug__, exc)
    """)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True, timeout=60,
                          env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("False diagonal exit mismatch")


def test_diagonal_exit_maximal_ideal():
    poly = newton_polyhedron(make_ideal(2, [(1, 0), (0, 1)]))
    assert diagonal_exit(poly) == F(1, 2)


def test_diagonal_exit_vertex_on_diagonal():
    poly = newton_polyhedron(make_ideal(2, [(1, 1)]))
    assert diagonal_exit(poly) == 1


def test_lct_pure_power():
    for ell in range(1, 7):
        assert lct(make_ideal(1, [(ell,)])) == F(1, ell)


def test_lct_diagonal_ideal():
    for l1, l2, l3 in [(2, 3, 4), (1, 1, 1), (5, 2, 7)]:
        gens = [(l1, 0, 0), (0, l2, 0), (0, 0, l3)]
        assert lct(make_ideal(3, gens)) == F(1, l1) + F(1, l2) + F(1, l3)


def test_lct_normal_crossings():
    assert lct(make_ideal(2, [(1, 1)])) == 1


def test_lct_range(rng):
    for _ in range(60):
        ideal = random_ideal(rng)
        value = lct(ideal)
        assert 0 < value <= ideal.n


def test_uniform_stretch_scaling(rng):
    for _ in range(15):
        ideal = random_ideal(rng)
        sigma = diagonal_exit(newton_polyhedron(ideal))
        for r in range(1, 6):
            stretched = stretch(ideal, (r,) * ideal.n)
            assert diagonal_exit(newton_polyhedron(stretched)) == r * sigma


# ---- the summation condition ------------------------------------------------

def test_condition_single_variable():
    ideal = make_ideal(1, [(3,)])
    for m in (1, 2, 5):
        for a1 in range(1, 25):
            assert lct_condition(ideal, (a1,), m) == (a1 >= m * 3)


def test_condition_diagonal_two_vars():
    ideal = make_ideal(2, [(2, 0), (0, 3)])
    for m in (1, 2, 4):
        for a1 in range(1, 10):
            for a2 in range(1, 10):
                expected = F(a1, 2) + F(a2, 3) >= m
                assert lct_condition(ideal, (a1, a2), m) == expected


def test_condition_pure_power_viewed_in_two_vars():
    ideal = make_ideal(2, [(3, 0)])
    for m in (1, 3):
        for a1 in range(1, 15):
            for a2 in (1, 2, 7):
                assert lct_condition(ideal, (a1, a2), m) == (a1 >= m * 3)


def test_region_condition_is_closed_complement():
    ideal = make_ideal(1, [(2,)])
    m = 4
    assert region_condition_via_lct(ideal, (8,), m)        # boundary: 8 = m*l
    assert lct_condition(ideal, (8,), m)                   # boundary in both
    assert region_condition_via_lct(ideal, (7,), m)
    assert not lct_condition(ideal, (7,), m)
    assert not region_condition_via_lct(ideal, (9,), m)


def test_lemma_equivalence_sample(rng):
    """Region membership of a/m versus the threshold comparison, a_i >= 2."""
    failures = 0
    for _ in range(150):
        ideal = random_ideal(rng, max_exp=6)
        a = tuple(rng.randint(2, 20) for _ in range(ideal.n))
        m = rng.randint(1, 50)
        member = in_newton_region(ideal, tuple(F(ai, m) for ai in a))
        threshold_side = region_condition_via_lct(ideal, a, m)
        if member != threshold_side:
            failures += 1
    assert failures == 0


def test_lemma_boundary_has_both():
    """At an exact diagram boundary point both the membership and the
    summation condition hold: prod(a) * lct = m there."""
    ideal = make_ideal(2, [(2, 0), (0, 2)])  # diagram a1 + a2 = 2m
    m, a = 3, (2, 4)  # 2 + 4 = 2*3
    assert in_newton_region(ideal, (F(2, 3), F(4, 3)))
    assert region_condition_via_lct(ideal, a, m)
    assert lct_condition(ideal, a, m)
    stretched = stretch(ideal, (4, 2))
    assert math.prod(a) * lct(stretched) == m


def test_condition_rejects_bad_input():
    ideal = make_ideal(2, [(1, 1)])
    with pytest.raises(ValueError):
        lct_condition(ideal, (0, 1), 1)
    with pytest.raises(ValueError):
        lct_condition(ideal, (1, 1), 0)
    with pytest.raises(ValueError):
        lct_condition(ideal, (1,), 1)
