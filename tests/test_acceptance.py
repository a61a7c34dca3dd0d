"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here, not configurable.
"""

import json
import random
import time
from fractions import Fraction as F

from newton_segre import (EstimatorConfig, TruncatedSeries, estimate,
                          evaluate, in_newton_region, make_ideal,
                          mode_agreement_report, region_condition_via_lct,
                          segre_class)
from tests.conftest import random_ideal
from tests.test_quadrature_oracle import SHAPES, draws, quadrature_piece_integral
from newton_segre import make_piece


def _report(num: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: PASS{suffix}")


def divisor_series(d: int, top: int) -> tuple:
    return tuple(F(d) * F(-d) ** (k - 1) for k in range(1, top + 1))


def test_criterion_1_pure_power_exactness():
    ambient = 4
    slowest = 0.0
    for ell in range(1, 7):
        for n in (1, 2):
            gens = [(ell,)] if n == 1 else [(ell, 0)]
            start = time.perf_counter()
            result = segre_class(make_ideal(n, gens), ambient_dim=ambient)
            elapsed = time.perf_counter() - start
            assert result.pushforward == divisor_series(ell, ambient)
            assert elapsed < 0.1
            slowest = max(slowest, elapsed)
    _report(1, "pure-power exactness", f"12 cases, slowest {slowest * 1e3:.1f} ms")


def test_criterion_2_diagonal_exactness():
    ambient = 5
    slowest = 0.0
    for l1 in range(1, 5):
        for l2 in range(1, 5):
            start = time.perf_counter()
            result = segre_class(make_ideal(2, [(l1, 0), (0, l2)]),
                                 ambient_dim=ambient)
            elapsed = time.perf_counter() - start
            expected = (TruncatedSeries(2, ambient, {(1, 1): l1 * l2})
                        * TruncatedSeries(2, ambient, {(0, 0): 1, (1, 0): l1}).inverse()
                        * TruncatedSeries(2, ambient, {(0, 0): 1, (0, 1): l2}).inverse())
            assert result.multivariate == expected
            assert result.pushforward == expected.pushforward(ambient)
            assert elapsed < 0.1
            slowest = max(slowest, elapsed)
    _report(2, "diagonal exactness", f"16 cases, slowest {slowest * 1e3:.1f} ms")


def test_criterion_3_divisor_law():
    rng = random.Random(3)
    cases = 0
    while cases < 20:
        n = rng.randint(1, 3)
        vec = tuple(rng.randint(0, 10) for _ in range(n))
        if not any(vec) or sum(vec) > 10:
            continue
        result = segre_class(make_ideal(n, [vec]), ambient_dim=4)
        assert result.pushforward == divisor_series(sum(vec), 4)
        cases += 1
    _report(3, "divisor law", "20 random principal ideals")


def test_criterion_4_lemma_property_suite():
    rng = random.Random(4)
    start = time.perf_counter()
    failures = 0
    for _ in range(1000):
        ideal = random_ideal(rng, max_exp=6)
        a = tuple(rng.randint(2, 20) for _ in range(ideal.n))
        m = rng.randint(1, 50)
        member = in_newton_region(ideal, tuple(F(ai, m) for ai in a))
        if member != region_condition_via_lct(ideal, a, m):
            failures += 1
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert elapsed < 60.0
    _report(4, "threshold-membership equivalence",
            f"1000 trials, 0 failures, {elapsed:.1f} s")


CONVERGENCE_IDEALS = {
    "diagonal(2,3)": [(2, 0), (0, 3)],
    "staircase(x1^2,x1x2)": [(2, 0), (1, 1)],
}


def test_criterion_5_estimator_convergence():
    X = (F(1, 3), F(1, 2))
    details = []
    for name, gens in CONVERGENCE_IDEALS.items():
        ideal = make_ideal(2, gens)
        exact = float(evaluate(segre_class(ideal, ambient_dim=2), list(X)))
        errors = {}
        for m in (250, 500, 1000):
            start = time.perf_counter()
            value = estimate(ideal, EstimatorConfig(m=m, X=X))
            elapsed = time.perf_counter() - start
            assert elapsed < 5.0
            errors[m] = abs(value - exact)
        assert errors[500] / exact < 0.02
        for m in (250, 500):
            ratio = errors[m] / errors[2 * m]
            assert 1.5 <= ratio <= 3.0, f"{name}: ratio at m={m} is {ratio}"
        details.append(f"{name} err@500={errors[500] / exact:.2%}")
    _report(5, "estimator convergence", "; ".join(details))


def test_criterion_6_per_piece_quadrature_oracle():
    checked = 0
    for name in sorted(SHAPES):
        vertices, rays = SHAPES[name]
        piece = make_piece([tuple(F(c) for c in v) for v in vertices], rays)
        for X in draws(name):
            from newton_segre.segre import piece_value
            closed = float(piece_value(piece, X))
            quad = quadrature_piece_integral(piece, X)
            assert abs(closed - quad) <= 1e-8 * abs(quad)
            checked += 1
    _report(6, "per-piece closed form vs quadrature", f"{checked} comparisons")


def test_criterion_7_polygamma_identities():
    from newton_segre import (verify_diagonal_identity, verify_power_identity,
                              verify_two_variable_identity)

    start = time.perf_counter()
    power = verify_power_identity(2, 0.5, 10 ** 4)
    assert abs(power - 0.5) < 1e-3
    assert time.perf_counter() - start < 30

    start = time.perf_counter()
    two_var = verify_two_variable_identity(2, 0.5, 0.5, 2000)
    target = 2 * 0.5 / (1 + 2 * 0.5)
    assert abs(two_var - target) / target < 0.01
    assert time.perf_counter() - start < 30

    start = time.perf_counter()
    diagonal = verify_diagonal_identity(2, 3, 1 / 3, 1 / 2, 1000)
    diag_target = (2 / 3) * (3 / 2) / ((1 + 2 / 3) * (1 + 3 / 2))
    assert abs(diagonal - diag_target) / diag_target < 0.01
    assert time.perf_counter() - start < 30
    _report(7, "polygamma identities",
            f"power {abs(power - 0.5):.1e}, two-var "
            f"{abs(two_var - target) / target:.1e}, diagonal "
            f"{abs(diagonal - diag_target) / diag_target:.1e}")


def test_criterion_8_mode_agreement():
    counters = []
    for name, gens in CONVERGENCE_IDEALS.items():
        ideal = make_ideal(2, gens)
        for m in (250, 500):
            report = mode_agreement_report(ideal, m)
            assert report.interior_mismatches == 0, f"{name} at m={m}"
            # a_i = 1 discrepancies must stay O(m^(n-1)) = O(m)
            assert report.edge_mismatches <= 20 * m
            counters.append(report.edge_mismatches)
    assert all(c == 0 for c in counters)
    _report(8, "membership vs threshold index sets",
            f"edge discrepancy counters {counters}")


def test_criterion_9_embedding_independence():
    payloads = []
    for n in (1, 2):
        gens = [(3,)] if n == 1 else [(3, 0)]
        result = segre_class(make_ideal(n, gens), ambient_dim=4)
        payloads.append(json.dumps(
            {"pushforward": [str(c) for c in result.pushforward]}).encode())
    assert payloads[0] == payloads[1]
    _report(9, "embedding independence", payloads[0].decode())
