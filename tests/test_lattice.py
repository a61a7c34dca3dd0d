import importlib
import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from newton_segre import (CutoffTooSmall, EstimateTooLarge, EstimatorConfig,
                          InternalInconsistency, InvalidInput, NonPositiveParameter,
                          convergence_report, estimate, evaluate, kernel_term, make_ideal,
                          mode_agreement_report, segre_class)
from newton_segre.lattice import (LCT_BASED, MEMBERSHIP, _column_tops, _facet_top,
                                  _int_facets, _kernel_sum)
from newton_segre.polyhedron import in_newton_region, newton_polyhedron
from newton_segre.segre import _common_denominator
from tests.conftest import random_ideal

lattice = importlib.import_module("newton_segre.lattice")
pg = importlib.import_module("newton_segre.polygamma")


def exact_value(ideal, X):
    return evaluate(segre_class(ideal, ambient_dim=max(ideal.n, 1)), list(X))


def test_kernel_term_substitutions():
    assert kernel_term((1,), 1, (F(1),)) == F(1, 4)
    assert kernel_term((1, 1), 1, (F(1), F(1))) == F(2, 27)
    assert kernel_term((2, 3), 5, (0.5, 0.25)) == pytest.approx(
        5 * 2 * 0.125 / (5 + 1.0 + 0.75) ** 3)


def test_kernel_term_first_index_of_power_sum():
    # at a = m*l the term matches m*X/(m + a X)^2
    m, ell, x = 7, 3, F(1, 2)
    assert kernel_term((m * ell,), m, (x,)) == m * x / (m + m * ell * x) ** 2


def test_kernel_term_is_exact_then_float():
    """Float X are read as the rationals they store; the term is computed
    exactly and converted once, so (m + a.X)^(n+1) cannot overflow."""
    for X in ((0.5, 0.25), (1.0, 1e102), (1e-300, 3.0)):
        value = kernel_term((2, 3), 5, X)
        assert type(value) is float
        assert value == float(kernel_term((2, 3), 5, tuple(F(x) for x in X)))
    with pytest.raises(InvalidInput):
        kernel_term((1, 1), 1, (F(1), float("inf")))


def test_kernel_term_validation():
    with pytest.raises(ValueError):
        kernel_term((0,), 1, (F(1),))
    with pytest.raises(NonPositiveParameter):
        kernel_term((1,), 1, (F(0),))


def test_kernel_term_length_mismatch_is_typed():
    with pytest.raises(InvalidInput, match="same length"):
        kernel_term((1, 1), 1, (F(1),))


def test_kernel_term_domain_is_typed():
    with pytest.raises(InvalidInput, match="m >= 1 and a_i >= 1"):
        kernel_term((1,), 0, (F(1),))


def test_exact_mode_needs_rational_X():
    ideal = make_ideal(2, [(1, 0), (0, 1)])
    with pytest.raises(InvalidInput, match="needs rational X"):
        estimate(ideal, EstimatorConfig(m=5, X=(0.5, 0.25), arithmetic="exact_rational"))


def test_estimate_line_segment():
    ideal = make_ideal(1, [(1,)])
    cfg = EstimatorConfig(m=1000, X=(F(1),))
    value = estimate(ideal, cfg)
    assert abs(value - 0.5) < 5e-3


def test_estimate_kernel_suppressed_at_huge_X():
    ideal = make_ideal(2, [(2, 0), (0, 3)])
    cfg = EstimatorConfig(m=1, X=(F(10 ** 6), F(10 ** 6)))
    assert estimate(ideal, cfg) < 1e-4


def test_estimate_diagonal_within_two_percent():
    ideal = make_ideal(2, [(2, 0), (0, 3)])
    X = (F(1, 3), F(1, 2))
    target = float(exact_value(ideal, X))
    value = estimate(ideal, EstimatorConfig(m=500, X=X))
    assert abs(value - target) / target < 0.02


def test_exact_mode_matches_float_bounded():
    ideal = make_ideal(2, [(2, 0), (0, 3)])
    X = (F(1, 3), F(1, 2))
    for m in (50, 100, 200, 500):
        exact = estimate(ideal, EstimatorConfig(m=m, X=X, arithmetic="exact_rational"))
        approx = estimate(ideal, EstimatorConfig(m=m, X=X))
        assert abs(float(exact) - approx) <= 1e-12 * abs(float(exact))


def test_exact_mode_matches_float_with_tails():
    """The polygamma-based tail summation must reproduce the literal
    truncated sum that exact mode adds up."""
    ideal = make_ideal(2, [(1, 1)])
    X = (F(1), F(1))
    for m, cutoff in ((20, 400), (50, 2000)):
        exact = estimate(ideal, EstimatorConfig(
            m=m, X=X, ray_cutoff=cutoff, arithmetic="exact_rational"))
        approx = estimate(ideal, EstimatorConfig(m=m, X=X, ray_cutoff=cutoff))
        assert abs(float(exact) - approx) <= 1e-12 * abs(float(exact))


def test_exact_mode_matches_float_mixed_ideal():
    ideal = make_ideal(2, [(2, 0), (1, 1)])
    X = (F(1, 3), F(1, 2))
    exact = estimate(ideal, EstimatorConfig(
        m=60, X=X, ray_cutoff=3000, arithmetic="exact_rational"))
    approx = estimate(ideal, EstimatorConfig(m=60, X=X, ray_cutoff=3000))
    assert abs(float(exact) - approx) <= 1e-12 * abs(float(exact))


def test_exact_mode_three_vars_bounded():
    ideal = make_ideal(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    X = (F(1, 2), F(1, 3), F(1, 5))
    exact = estimate(ideal, EstimatorConfig(m=20, X=X, arithmetic="exact_rational"))
    approx = estimate(ideal, EstimatorConfig(m=20, X=X))
    assert abs(float(exact) - approx) <= 1e-12 * abs(float(exact))


@pytest.mark.parametrize("gens, m, cutoff", [
    ([(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)], 6, None),
    ([(2, 1, 0, 0), (0, 0, 1, 1), (1, 0, 2, 0)], 3, 9),
])
def test_exact_mode_four_vars(gens, m, cutoff):
    """n = 4 sends the column sums through polygamma of order 4."""
    ideal = make_ideal(4, gens)
    X = (F(1, 2), F(1, 3), F(1, 5), F(1, 7))
    exact = estimate(ideal, EstimatorConfig(m=m, X=X, ray_cutoff=cutoff,
                                            arithmetic="exact_rational"))
    approx = estimate(ideal, EstimatorConfig(m=m, X=X, ray_cutoff=cutoff))
    assert abs(float(exact) - approx) <= 1e-12 * abs(float(exact))


def enumerated_sum(ideal, cfg) -> F:
    """The truncated sum by literal enumeration: every point of the
    estimator's box tested against every facet at once (_member_mask on an
    int64 meshgrid), its members binned by denominator in Python ints."""
    poly = newton_polyhedron(ideal)
    _, limits = lattice._axis_limits(poly, cfg.m, cfg.ray_cutoff)
    grids = np.meshgrid(*(np.arange(1, limit + 1, dtype=np.int64) for limit in limits),
                        indexing="ij")
    mask = lattice._member_mask(poly.diagram_facets, cfg.m, grids)
    L, lx = _common_denominator(cfg.X)
    counts = Counter(L * cfg.m + sum(x * int(a) for x, a in zip(lx, point))
                     for point in np.argwhere(mask) + 1)
    return F(*_kernel_sum(counts, cfg.m, cfg.X, L))


@st.composite
def _walk_cases(draw):
    """n = 1..3; generators with entries up to 4, with a pure power on every
    axis (bounded) or as drawn (often unbounded); cutoff m..5m; X with small
    denominators or with denominators of about 10^6 (one shared in 3-D,
    where three coprime ones take L*m past int64, which exact mode refuses)."""
    n = draw(st.integers(1, 3))
    vectors = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any).map(tuple)
    gens = draw(st.lists(vectors, min_size=1, max_size=4))
    if draw(st.booleans()):
        gens += [tuple(draw(st.integers(1, 4)) if j == i else 0 for j in range(n))
                 for i in range(n)]
    m = draw(st.integers(1, {1: 30, 2: 8, 3: 3}[n]))
    cutoff = draw(st.integers(m, 5 * m))
    if draw(st.booleans()):
        X = [F(draw(st.integers(1, 5)), draw(st.integers(1, 5))) for _ in range(n)]
    else:
        large = st.integers(10 ** 6, 10 ** 6 + 999)
        dens = [draw(large)] * n if n == 3 else [draw(large) for _ in range(n)]
        X = [F(draw(st.integers(1, 2 * 10 ** 6)), den) for den in dens]
    return make_ideal(n, gens), EstimatorConfig(m=m, X=tuple(X), ray_cutoff=cutoff,
                                                arithmetic="exact_rational")


@settings(max_examples=120, deadline=None)
@given(_walk_cases())
def test_exact_walk_matches_enumeration(case):
    """Exact mode's column walk sums exactly the points that the literal
    enumeration admits, to the same rational."""
    ideal, cfg = case
    assert estimate(ideal, cfg) == enumerated_sum(ideal, cfg)


@pytest.mark.parametrize("mode, arithmetic",
                         itertools.product((MEMBERSHIP, LCT_BASED), ("float64", "exact_rational")))
def test_cutoff_leaves_bounded_axes_whole(mode, arithmetic):
    """The cutoff truncates only axes some facet ignores: x1^100 at m = 5
    reaches a1 = 500, past the default cutoff 250, and (x1^30, x2^2) at
    m = 2 reaches a1 = 60, past 40. Each gives the value of a cutoff beyond
    its box, and a tail tolerance has no tail to bound."""
    for ideal, m, X in ((make_ideal(1, [(100,)]), 5, (F(1, 2),)),
                        (make_ideal(2, [(30, 0), (0, 2)]), 2, (F(1, 3), F(1, 2)))):
        base = dict(m=m, X=X, condition_mode=mode, arithmetic=arithmetic)
        value = estimate(ideal, EstimatorConfig(**base))
        assert value == estimate(ideal, EstimatorConfig(**base, ray_cutoff=10 ** 4))
        assert value == estimate(ideal, EstimatorConfig(**base, tail_tolerance=1e-12))


def test_lct_mode_agrees_with_membership_small():
    ideal = make_ideal(2, [(2, 0), (0, 2)])
    X = (F(1, 2), F(1, 2))
    member = estimate(ideal, EstimatorConfig(m=12, X=X, arithmetic="exact_rational"))
    literal = estimate(ideal, EstimatorConfig(
        m=12, X=X, arithmetic="exact_rational", condition_mode=LCT_BASED))
    assert member == literal


def lct_pointwise(ideal, cfg):
    """The lct-mode sum point by point: the threshold-side test and
    kernel_term at every point of the estimator's box, summed exactly and
    rounded once in float64 mode."""
    _, limits = lattice._axis_limits(newton_polyhedron(ideal), cfg.m, cfg.ray_cutoff)
    total = sum((kernel_term(a, cfg.m, cfg.X)
                 for a in itertools.product(*(range(1, b + 1) for b in limits))
                 if lattice.region_condition_via_lct(ideal, a, cfg.m)), F(0))
    return total if cfg.arithmetic == "exact_rational" else float(total)


def test_lct_mode_equals_pointwise_sum():
    """The column scan sums exactly the points the threshold-side test
    admits, on random 1-3-D ideals, bounded or not, in both arithmetics."""
    rng = random.Random(5)
    for _ in range(24):
        n = rng.choice((1, 2, 2, 3, 3))
        ideal = random_ideal(rng, n=n, max_gens=4, max_exp=4)
        m = rng.randint(1, {1: 20, 2: 8, 3: 3}[n])
        X = tuple(F(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(n))
        for arithmetic in ("exact_rational", "float64"):
            cfg = EstimatorConfig(m=m, X=X, condition_mode=LCT_BASED,
                                  ray_cutoff=2 * m, arithmetic=arithmetic)
            assert estimate(ideal, cfg) == lct_pointwise(ideal, cfg)


def test_lct_mode_follows_the_threshold_side_at_edges(monkeypatch):
    """Where the sets may differ by design (some a_i = 1), lct mode sums the
    points the threshold-side test admits, not the facets' members."""
    ideal = make_ideal(2, [(2, 0), (0, 3)])
    test = lattice.region_condition_via_lct
    monkeypatch.setattr(lattice, "region_condition_via_lct",
                        lambda ideal, a, m: a[1] == 1 or test(ideal, a, m))
    cfg = EstimatorConfig(m=6, X=(F(1, 3), F(1, 2)), condition_mode=LCT_BASED,
                          arithmetic="exact_rational")
    value = estimate(ideal, cfg)
    assert value == lct_pointwise(ideal, cfg)
    assert value > estimate(ideal, EstimatorConfig(m=6, X=cfg.X, arithmetic="exact_rational"))
    report = mode_agreement_report(ideal, 6)
    assert report.interior_mismatches == 0 < report.edge_mismatches


def test_lct_mode_raises_on_interior_mismatch(monkeypatch):
    """A threshold-side test answered at m - 1 disagrees with the facets at
    interior points: lct mode refuses to sum, and the report counts them."""
    ideal, m = make_ideal(2, [(2, 0), (0, 3)]), 12
    test = lattice.region_condition_via_lct
    monkeypatch.setattr(lattice, "region_condition_via_lct",
                        lambda ideal, a, m: test(ideal, a, m - 1))
    with pytest.raises(InternalInconsistency, match="62 interior"):
        estimate(ideal, EstimatorConfig(m=m, X=(F(1, 3), F(1, 2)), condition_mode=LCT_BASED))
    assert mode_agreement_report(ideal, m).interior_mismatches == 62


def test_lct_mode_sums_exactly():
    """The float64 lct-mode value is the exact sum rounded once, for X far
    beyond where float kernel terms overflowed."""
    ideal = make_ideal(2, [(2, 0), (0, 3)])
    for X in ((F(1, 3), F(1, 2)), (F(1), F(10) ** 102)):
        exact = estimate(ideal, EstimatorConfig(
            m=6, X=X, arithmetic="exact_rational", condition_mode=LCT_BASED))
        value = estimate(ideal, EstimatorConfig(m=6, X=X, condition_mode=LCT_BASED))
        assert type(value) is float
        assert value == float(exact) > 0


def test_lct_mode_refuses_runaway_enumeration():
    ideal = make_ideal(2, [(1, 1)])
    cfg = EstimatorConfig(m=100, X=(F(1), F(1)), condition_mode=LCT_BASED)
    with pytest.raises(EstimateTooLarge, match="box of 10000000000 lattice points"):
        estimate(ideal, cfg)


def test_lct_budget_covers_report_and_lct_mode(monkeypatch):
    ideal = make_ideal(2, [(2, 0), (0, 3)])
    # at m = 6 the box is 12 x 18: 18 columns along axis 0, 216 points
    monkeypatch.setattr(lattice, "MAX_LCT_POINTS", 17)
    with pytest.raises(EstimateTooLarge, match="18 lattice columns"):
        mode_agreement_report(ideal, m=6)
    with pytest.raises(EstimateTooLarge, match="box of 216 lattice points"):
        estimate(ideal, EstimatorConfig(m=6, X=(F(1), F(1)), condition_mode=LCT_BASED))
    monkeypatch.setattr(lattice, "MAX_LCT_POINTS", 18)
    assert mode_agreement_report(ideal, m=6).interior_mismatches == 0


def test_tail_check_reads_x_exactly():
    """X_1^3 leaves float64, which lct mode sums exactly; its tail bound is
    tiny and must not refuse the estimate."""
    ideal, X = make_ideal(2, [(1, 1)]), (F(10 ** 110), F(1))
    bare = EstimatorConfig(m=2, X=X, condition_mode=LCT_BASED,
                           arithmetic="exact_rational", ray_cutoff=4)
    checked = EstimatorConfig(m=2, X=X, condition_mode=LCT_BASED,
                              arithmetic="exact_rational", ray_cutoff=4, tail_tolerance=1e-3)
    assert estimate(ideal, checked) == estimate(ideal, bare) > 0


@pytest.mark.parametrize("mode", [MEMBERSHIP, LCT_BASED])
def test_cutoff_too_small(mode):
    ideal = make_ideal(2, [(1, 1)])
    cfg = EstimatorConfig(m=30, X=(F(1), F(1)), condition_mode=mode, ray_cutoff=50,
                          tail_tolerance=1e-12)
    with pytest.raises(CutoffTooSmall):
        estimate(ideal, cfg)


def test_convergence_report_rows():
    ideal = make_ideal(2, [(2, 0), (0, 3)])
    rows = convergence_report(ideal, (F(1, 3), F(1, 2)), [125, 250, 500])
    assert [r.m for r in rows] == [125, 250, 500]
    for row in rows:
        assert row.abs_error == abs(row.estimate - row.exact_value)
        assert row.elapsed_time >= 0
    assert rows[0].abs_error > rows[1].abs_error > rows[2].abs_error


def test_error_ratio_window():
    ideal = make_ideal(1, [(2,)])
    rows = convergence_report(ideal, (F(1, 2),), [250, 500, 1000])
    r1 = rows[0].abs_error / rows[1].abs_error
    r2 = rows[1].abs_error / rows[2].abs_error
    assert 1.5 <= r1 <= 3.0
    assert 1.5 <= r2 <= 3.0


def test_error_ratio_window_crossing_divisor():
    """(x1 x2) with the default 10*m^2 ray cutoff keeps first-order decay."""
    ideal = make_ideal(2, [(1, 1)])
    rows = convergence_report(ideal, (F(1), F(1)), [250, 500, 1000])
    assert 1.5 <= rows[0].abs_error / rows[1].abs_error <= 3.0
    assert 1.5 <= rows[1].abs_error / rows[2].abs_error <= 3.0


def test_uniform_stretch_family_report():
    """Error columns shrink with m for each uniformly stretched ideal."""
    base = make_ideal(2, [(1, 1)])
    from newton_segre import stretch

    for r in (1, 2, 3):
        ideal = stretch(base, (r, r))
        rows = convergence_report(ideal, (F(1), F(1)), [100, 200, 400])
        errors = [row.abs_error for row in rows]
        assert errors == sorted(errors, reverse=True)


def test_convergence_report_cutoff_applies_to_every_m():
    ideal = make_ideal(2, [(1, 1)])
    X = (F(1, 2), F(1, 3))
    rows = convergence_report(ideal, X, [10, 20], ray_cutoff=400)
    for row in rows:
        assert row.estimate == estimate(ideal, EstimatorConfig(m=row.m, X=X, ray_cutoff=400))


def test_refused_report_builds_no_decomposition(monkeypatch):
    """Every estimate runs before the cone decomposition: a report whose last
    m is refused (10^10 lattice columns) decomposes nothing, and one that
    finishes decomposes once."""
    decompose, calls = lattice.cone_decomposition, []
    monkeypatch.setattr(lattice, "cone_decomposition",
                        lambda poly: calls.append(poly) or decompose(poly))
    ideal = make_ideal(3, [(0, 0, 1)])
    with pytest.raises(EstimateTooLarge):
        convergence_report(ideal, (1, 1, 1), [2, 1000])
    assert calls == []
    assert [row.m for row in convergence_report(ideal, (1, 1, 1), [2, 3])] == [2, 3]
    assert len(calls) == 1


def test_convergence_report_requires_increasing_m():
    for m_list in ([100, 50], [50, 50]):
        with pytest.raises(ValueError):
            convergence_report(make_ideal(1, [(1,)]), (F(1),), m_list)


def test_column_tops_match_point_tests():
    m, lo, hi = 7, 2, 40
    axes = [np.arange(1, 25, dtype=np.int64), np.arange(1, 12, dtype=np.int64)]
    for n, gens in ((2, [(3, 0), (1, 2)]), (2, [(2, 1), (0, 3)]),
                    (3, [(2, 0, 0), (0, 3, 0), (1, 1, 1)]),
                    (3, [(2, 1, 0), (0, 3, 1), (1, 0, 2)])):
        poly = newton_polyhedron(make_ideal(n, gens))
        facets = _int_facets(poly, m, [hi] * n)
        grids = list(np.meshgrid(*axes[:n - 1], indexing="ij"))
        tops = np.broadcast_to(_column_tops(facets, m, n - 1, grids + [None], lo, hi),
                               grids[0].shape)
        for index, top in np.ndenumerate(tops):
            rest = [int(g[index]) for g in grids]
            assert _facet_top(facets, m, n - 1, rest + [None], lo, hi) == top
            for ak in range(lo, hi + 1):
                expected = in_newton_region(poly, [F(a, m) for a in rest + [ak]])
                assert (ak <= top) == expected
            assert lo - 1 <= top <= hi


def oracle_kernel_sum(counts, m, xs, L) -> F:
    """The exact kernel sum with one Fraction addition per denominator, in
    the order of counts: a left fold."""
    n = len(xs)
    total = F(0)
    for k, c in counts.items():
        total += F(c, k ** (n + 1))
    return m * math.factorial(n) * math.prod(xs) * F(L) ** (n + 1) * total


@given(st.dictionaries(st.integers(1, 10 ** 9), st.integers(1, 5), max_size=60),
       st.lists(st.fractions(F(1, 50), 50, max_denominator=50), min_size=1, max_size=3),
       st.integers(1, 40))
def test_kernel_sum_matches_left_fold(counts, xs, m):
    """The pairwise sum is the left fold's rational, reduced or as its float."""
    L = math.lcm(*(x.denominator for x in xs))
    expected = oracle_kernel_sum(counts, m, xs, L)
    num, den = _kernel_sum(counts, m, xs, L)
    assert F(num, den) == expected
    assert num / den == float(expected)


def test_kernel_sum_small_cases():
    xs, L = (F(1, 2), F(1, 3)), 6
    assert _kernel_sum({}, 5, xs, L)[0] == 0
    for counts in ({17: 1}, {17: 4}, {17: 2, 19: 3, 23: 2}):
        assert F(*_kernel_sum(counts, 5, xs, L)) == oracle_kernel_sum(counts, 5, xs, L)


def test_mode_agreement_two_vars():
    report = mode_agreement_report(make_ideal(2, [(2, 0), (0, 3)]), m=60)
    assert report.interior_mismatches == 0
    assert report.edge_mismatches == 0
    assert report.points_covered > 0
    assert report.lct_evaluations > 0


def test_mode_agreement_counts_each_mismatch_once(monkeypatch):
    """With an lct side that admits no point, the mismatches are exactly the
    box points in the Newton region, each counted once."""
    ideal, m = make_ideal(2, [(2, 0), (0, 3)]), 6
    monkeypatch.setattr(lattice, "region_condition_via_lct", lambda *args: False)
    report = mode_agreement_report(ideal, m)
    assert report.points_covered == 12 * 18
    poly = newton_polyhedron(ideal)
    members = sum(in_newton_region(poly, (F(a1, m), F(a2, m)))
                  for a1 in range(1, 13) for a2 in range(1, 19))
    assert members == 96
    assert report.interior_mismatches + report.edge_mismatches == members


def test_mode_agreement_needs_no_int64():
    """The scan's facet tops are Python ints: x2^(10^19) takes c*m + w.a past
    int64, and the two index sets are still compared."""
    report = mode_agreement_report(make_ideal(2, [(2, 0), (0, 10 ** 19)]), 3)
    assert report.interior_mismatches == report.edge_mismatches == 0
    assert report.lct_evaluations > 0


def test_mode_agreement_other_dims():
    report = mode_agreement_report(make_ideal(1, [(3,)]), m=40)
    assert report.interior_mismatches == 0
    report = mode_agreement_report(make_ideal(3, [(1, 1, 1)]), m=4)
    assert report.interior_mismatches == 0
    assert report.edge_mismatches == 0
    # one bracketed threshold search per column, not one lct per point
    assert report.lct_evaluations < report.points_covered


def test_runtime_m_1000_under_five_seconds():
    ideal = make_ideal(2, [(2, 0), (1, 1)])
    start = time.perf_counter()
    estimate(ideal, EstimatorConfig(m=1000, X=(F(1, 3), F(1, 2))))
    assert time.perf_counter() - start < 5.0


def test_config_validation():
    with pytest.raises(NonPositiveParameter):
        EstimatorConfig(m=10, X=(F(0),))
    with pytest.raises(ValueError):
        EstimatorConfig(m=0, X=(F(1),))
    with pytest.raises(ValueError):
        EstimatorConfig(m=10, X=(F(1),), condition_mode="nope")
    with pytest.raises(ValueError):
        EstimatorConfig(m=10, X=(F(1),), ray_cutoff=5)


_EXPONENT_VECTORS = {n: st.lists(st.integers(0, 3), min_size=n, max_size=n)
                     .filter(any).map(tuple) for n in (2, 3)}


@st.composite
def _small_estimates(draw):
    n = draw(st.sampled_from((2, 3)))
    gens = draw(st.lists(_EXPONENT_VECTORS[n], min_size=1, max_size=4))
    m = draw(st.integers(1, 12 if n == 2 else 5))
    cutoff = draw(st.integers(m, 6 * m if n == 2 else 3 * m))
    X = tuple(F(draw(st.integers(1, 5)), draw(st.integers(1, 5))) for _ in range(n))
    return make_ideal(n, gens), m, cutoff, X


@settings(max_examples=60, deadline=None)
@given(_small_estimates())
def test_column_sums_match_exact_mode(case):
    """On random ideals, m-primary or not, the column sums reproduce the
    truncated sum that exact mode adds up."""
    ideal, m, cutoff, X = case
    exact = estimate(ideal, EstimatorConfig(
        m=m, X=X, ray_cutoff=cutoff, arithmetic="exact_rational"))
    approx = estimate(ideal, EstimatorConfig(m=m, X=X, ray_cutoff=cutoff))
    assert abs(float(exact) - approx) <= 1e-12 * abs(float(exact))


@st.composite
def _3d_estimates(draw):
    """A 3-D ideal with pure powers on every axis but at most one, which is
    left unbounded, mixed generators, m <= 12 and X in (0, 5]."""
    free = draw(st.sampled_from((None, 0, 1, 2)))
    gens = [tuple(draw(st.integers(1, 3)) if j == i else 0 for j in range(3))
            for i in range(3) if i != free]
    mixed = _EXPONENT_VECTORS[3].filter(lambda e: sum(map(bool, e)) > 1)
    gens += draw(st.lists(mixed, max_size=3))
    m = draw(st.integers(1, 12))
    cutoff = draw(st.integers(m, 3 * m)) if free is not None else None
    X = tuple(F(draw(st.integers(1, 5)), draw(st.integers(1, 5))) for _ in range(3))
    return make_ideal(3, gens), m, cutoff, X


@settings(max_examples=40, deadline=None)
@given(_3d_estimates())
def test_3d_float_estimate_matches_exact_mode(case):
    """The cut column walk sums exactly the lattice points exact mode
    enumerates, bounded or with one tail axis, up to float rounding."""
    ideal, m, cutoff, X = case
    exact = estimate(ideal, EstimatorConfig(
        m=m, X=X, ray_cutoff=cutoff, arithmetic="exact_rational"))
    approx = estimate(ideal, EstimatorConfig(m=m, X=X, ray_cutoff=cutoff))
    assert abs(float(exact) - approx) <= 1e-12 * abs(float(exact))


def test_float_estimate_kernel_calls_are_bounded(monkeypatch):
    """Each block of at most _CHUNK columns makes one polygamma call on both
    column ends: no call gets more than 2 * _CHUNK arguments."""
    sizes, polygamma = [], lattice.polygamma

    def recording(r, x):
        sizes.append(x.size)
        return polygamma(r, x)

    monkeypatch.setattr(lattice, "polygamma", recording)
    ideal = make_ideal(3, [(2, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1)])
    value = estimate(ideal, EstimatorConfig(m=120, X=(F(1, 2), F(1, 3), F(1, 5))))
    assert 0 < value < 1
    assert len(sizes) > 1
    assert max(sizes) <= 2 * pg._CHUNK


def test_three_unbounded_axes_estimate():
    """(x1^2 x2, x2^3 x3, x1 x3^2) leaves all three axes unbounded, but no
    facet is blind to two axes, so only single-axis tails are summed."""
    ideal = make_ideal(3, [(2, 1, 0), (0, 3, 1), (1, 0, 2)])
    X = (F(1, 2), F(1, 3), F(1, 5))
    start = time.perf_counter()
    value = estimate(ideal, EstimatorConfig(m=60, X=X))
    assert time.perf_counter() - start < 2.0
    assert 0 < value <= float(exact_value(ideal, X))

