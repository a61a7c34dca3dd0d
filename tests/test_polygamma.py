import math
import warnings
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from newton_segre import (CutoffTooSmall, InvalidInput, NonPositiveArgument,
                          PrecisionUnreachable, bernoulli, polygamma,
                          polygamma_extended, sum_inverse_cubes,
                          verify_diagonal_identity, verify_power_identity,
                          verify_two_variable_identity)
from newton_segre.polygamma import SHIFT_THRESHOLD, _horner_coefficients


def direct_series(r: int, x: float, terms: int = 10 ** 7) -> float:
    """Independent oracle: partial sum of the defining series plus an
    integral tail with midpoint correction."""
    a = np.arange(terms, dtype=np.float64)
    partial = np.sum((a + x) ** (-(r + 1)))
    edge = terms + x - 0.5
    tail = edge ** (-r) / r
    return (-1.0) ** (r + 1) * math.factorial(r) * (partial + tail)


def test_bernoulli_first_values():
    table = bernoulli(8)
    assert table[:3] == (F(1, 6), F(-1, 30), F(1, 42))
    assert table[5] == F(-691, 2730)


def test_bernoulli_against_sympy():
    table = bernoulli(12)
    for k in range(1, 13):
        ref = sympy.bernoulli(2 * k)
        assert table[k - 1] == F(int(sympy.numer(ref)), int(sympy.denom(ref)))


def test_psi1_at_one_is_zeta_two():
    assert polygamma(1, 1.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-14)


def test_psi1_leading_asymptotic_coefficient():
    """The x^-3 coefficient of psi_1 is B_2 * 2!/2! = 1/6."""
    x = 300.0
    remainder = polygamma_extended(1, x) - (1 / x + 1 / (2 * x ** 2))
    # next term is -1/(30 x^5), a 2.3e-6 relative effect at x = 300
    assert remainder * x ** 3 == pytest.approx(1 / 6, rel=1e-4)


def test_psi2_at_ten_direct_summation():
    # frozen from the independent series oracle (and re-derived here)
    frozen = -0.0110498349708021
    assert direct_series(2, 10.0) == pytest.approx(frozen, abs=1e-14)
    assert polygamma(2, 10.0) == pytest.approx(frozen, rel=1e-13)


def test_series_asymptotic_cross_validation():
    for x in (10.0, 14.5, 33.0, 61.7, 100.0):
        for r in (1, 2, 3):
            direct = direct_series(r, x)
            assert abs(polygamma(r, x) - direct) <= 1e-10 * abs(direct)


def test_extended_precision_guard_path():
    for x in (0.3, 2.0, 10.0, 50.0):
        for r in (1, 2):
            assert polygamma(r, x) == pytest.approx(
                polygamma_extended(r, x), rel=5e-15)


def test_recurrence_exactness_within_ulps():
    for r in (1, 2, 3):
        for x in np.linspace(0.1, 50.0, 250):
            x = float(x)
            a, b = polygamma(r, x), polygamma(r, x + 1.0)
            lhs = b - a
            rhs = (-1.0) ** r * math.factorial(r) * x ** (-(r + 1))
            scale = max(abs(a), abs(b), abs(rhs))
            assert abs(lhs - rhs) <= 4 * np.spacing(scale)


def test_sign_pattern():
    for r in (1, 2, 3, 4):
        for x in (0.2, 1.0, 7.3, 120.0):
            assert (-1.0) ** (r + 1) * polygamma(r, x) > 0


def test_array_input_matches_scalars():
    xs = np.array([0.5, 3.0, 25.0, 400.0])
    values = polygamma(2, xs)
    for x, v in zip(xs, values):
        assert v == polygamma(2, float(x))


def test_domain_and_precision_errors():
    with pytest.raises(NonPositiveArgument):
        polygamma(1, 0.0)
    with pytest.raises(NonPositiveArgument):
        polygamma(2, -3.0)
    with pytest.raises(PrecisionUnreachable):
        polygamma(39, 1.0)


def oracle_horner_coefficients(r: int) -> tuple[float, ...]:
    """The expansion table built from exact Bernoulli numbers: c_k = B_2k
    (r+2k-1)!/(2k)! for k below the first K whose term at SHIFT_THRESHOLD is
    under 2^-60 of the leading term, as float ratios of Fraction parts."""
    x2 = int(SHIFT_THRESHOLD) ** 2
    for size in (16, 60):
        coeffs = []
        for k, b in enumerate(bernoulli(size), start=1):
            num = b.numerator * math.factorial(r + 2 * k - 1)
            den = b.denominator * math.factorial(2 * k)
            if abs(num) << 60 < math.factorial(r - 1) * x2 ** k * den:
                return tuple(reversed(coeffs))
            coeffs.append(num / den)
    raise PrecisionUnreachable(f"order {r}")


def test_horner_table_matches_bernoulli_oracle():
    """The integer table is the Fraction one, float for float and length for
    length, at every order the kernel serves; both refuse order 39."""
    for r in range(1, 39):
        assert _horner_coefficients(r) == oracle_horner_coefficients(r)
    for table in (_horner_coefficients, oracle_horner_coefficients):
        with pytest.raises(PrecisionUnreachable):
            table(39)


def test_polygamma_shapes_and_edge_values():
    """The types, shapes and edge values the kernel returns at r = 2."""
    empty = polygamma(2, np.array([]))
    assert isinstance(empty, np.ndarray) and empty.dtype == np.float64 and empty.shape == (0,)
    assert type(polygamma(2, np.array(3.0))) is float
    for seq in ([3.0, 30.0], (3.0, 30.0)):
        values = polygamma(2, seq)
        assert isinstance(values, np.ndarray)
        assert values.tobytes() == polygamma(2, np.array(seq)).tobytes()
    # a 2-D argument keeps its shape, shifted elements included
    grid = np.array([[0.5, 30.0, 2.0], [400.0, 7.0, 25.0]])
    values = polygamma(2, grid)
    assert values.shape == grid.shape
    assert values.tobytes() == polygamma(2, grid.ravel()).tobytes()
    at_inf = polygamma(2, np.array([np.inf]))[0]
    assert at_inf == 0.0 and math.copysign(1.0, at_inf) == -1.0
    huge = polygamma(2, 1e300)
    assert huge == 0.0 and math.copysign(1.0, huge) == -1.0
    with pytest.raises(InvalidInput):
        polygamma(2, [math.nan, -1.0])  # nan is reported before the sign
    with pytest.raises(NonPositiveArgument):
        polygamma(2, [-math.inf, 5.0])


@pytest.mark.parametrize("r", range(1, 7))
def test_against_mpmath_on_log_grid(r):
    """Relative error at most 1e-15 against 40-digit mpmath over [1e-3, 1e6]."""
    xs = np.logspace(-3, 6, 181)
    values = polygamma(r, xs)
    with mpmath.workdps(40):
        for x, v in zip(xs, values):
            ref = mpmath.polygamma(r, mpmath.mpf(float(x)))
            assert abs(float((mpmath.mpf(float(v)) - ref) / ref)) <= 1e-15


_BELOW = st.floats(1e-3, SHIFT_THRESHOLD, exclude_max=True)
_ABOVE = st.floats(SHIFT_THRESHOLD, 1e6)


@given(st.integers(1, 8), st.lists(_BELOW, min_size=1, max_size=8),
       st.lists(_ABOVE, min_size=1, max_size=8), st.randoms(use_true_random=False))
def test_array_elements_equal_scalar_calls(r, below, above, rnd):
    """Each element is computed independently of the others, bitwise: in
    arrays that mix both sides of the threshold and in arrays wholly above
    it, where the shift is skipped."""
    values = below + above
    rnd.shuffle(values)
    for xs in (values, above):
        scalars = np.array([polygamma(r, x) for x in xs])
        assert polygamma(r, np.array(xs)).tobytes() == scalars.tobytes()


def test_sum_inverse_cubes_matches_direct():
    y = 7.25
    direct = sum(1.0 / (a + y) ** 3 for a in range(5, 5000))
    assert sum_inverse_cubes(5, 4999, y) == pytest.approx(direct, rel=1e-12)
    assert sum_inverse_cubes(10, 9, y) == 0.0


# ---- identity checks --------------------------------------------------------

def test_power_identity_examples():
    assert verify_power_identity(2, 0.5, 10 ** 4) == pytest.approx(0.5, abs=1e-3)
    assert verify_power_identity(1, 1.0, 10 ** 4) == pytest.approx(0.5, abs=1e-3)


def test_power_identity_monotone_approach():
    target = 1 / (1 + 2 * 0.5)
    errors = [abs(verify_power_identity(2, 0.5, m) - target)
              for m in (500, 1000, 2000, 4000)]
    assert errors == sorted(errors, reverse=True)


def test_two_variable_identity_example():
    target = 2 * 0.5 / (1 + 2 * 0.5)
    value = verify_two_variable_identity(2, 0.5, 0.5, 2000)
    assert abs(value - target) / target < 0.01


def test_two_variable_identity_monotone_approach():
    # a long cutoff (a rest near 1e-6) so truncation noise does not mask the
    # O(1/m) trend
    target = 0.5
    errors = [abs(verify_two_variable_identity(2, 0.5, 0.5, m, tail_cutoff=10 ** 6 - 2 * m - 1)
                  - target) for m in (250, 500, 1000, 2000)]
    assert errors == sorted(errors, reverse=True)


def test_two_variable_identity_stable_under_halving_X2():
    values = [verify_two_variable_identity(2, 0.5, x2, 800) for x2 in (0.5, 0.25)]
    assert abs(values[0] - values[1]) < 1e-3


def test_two_variable_matches_lattice_estimator():
    """Both routes compute the same limit for (x1^l) seen in two variables."""
    from newton_segre import EstimatorConfig, estimate, make_ideal

    ideal = make_ideal(2, [(2, 0)])
    m = 300
    lattice = estimate(ideal, EstimatorConfig(m=m, X=(F(1, 2), F(1, 2)),
                                              ray_cutoff=10 * m * m))
    analytic = verify_two_variable_identity(2, 0.5, 0.5, m)
    assert abs(lattice - analytic) < 5e-3


def test_diagonal_identity_examples():
    target = (2 / 3) * (3 / 2) / ((1 + 2 / 3) * (1 + 3 / 2))
    value = verify_diagonal_identity(2, 3, 1 / 3, 1 / 2, 1000)
    assert abs(value - target) / target < 0.01

    value11 = verify_diagonal_identity(1, 1, 1.0, 1.0, 1000)
    assert abs(value11 - 0.25) / 0.25 < 0.01


def test_diagonal_identity_tracks_exact_class():
    from newton_segre import evaluate, make_ideal, segre_class

    exact = float(evaluate(segre_class(make_ideal(2, [(2, 0), (0, 3)]), 2),
                           [F(1, 3), F(1, 2)]))
    errors = [abs(verify_diagonal_identity(2, 3, 1 / 3, 1 / 2, m) - exact)
              for m in (250, 500, 1000)]
    assert errors == sorted(errors, reverse=True)


def _psi2_tail_sum(y):
    """sum_{j >= 0} psi_2(y + j) = -2 (zeta(2, y) - (y - 1) zeta(3, y)), from
    psi_2 = -2 zeta(3, .) (DLMF 25.11.12)."""
    return -2 * (mpmath.zeta(2, y) - (y - 1) * mpmath.zeta(3, y))


def _staircase(ell1, ell2, X, m):
    return mpmath.fsum(mpmath.psi(2, m * ell2 - (a1 * ell2) // ell1 + m / X + a1)
                       for a1 in range(1, m * ell1))


@pytest.mark.parametrize("ell, X, m", [(2, 0.5, 2000), (1, 1.0, 500),
                                       (3, 0.25, 100), (2, 0.5, 250)])
def test_two_variable_identity_matches_closed_form(ell, X, m):
    """At X1 = X2 = X the untruncated finite-m value is
    1 + (m/X) T(m/X + m*l + 1) with T the psi_2 tail sum; the default cutoff
    and the two-term rest stay within 2e-9 of it (relative errors 6.0e-11
    to 8.3e-10 here)."""
    with mpmath.workdps(30):
        scale = m / mpmath.mpf(X)
        exact = 1 + scale * _psi2_tail_sum(scale + m * ell + 1)
        value = verify_two_variable_identity(ell, X, X, m)
        assert abs(float((value - exact) / exact)) < 2e-9


@pytest.mark.parametrize("ell1, ell2, X, m", [(2, 3, 0.5, 200), (1, 1, 1.0, 300)])
def test_diagonal_identity_matches_closed_form(ell1, ell2, X, m):
    """The diagonal value adds the staircase to the same tail: within 2e-9
    of the closed form (relative errors 1.1e-9 and 1.0e-9 here), and minus
    the two-variable value at l = l1 it is the scaled staircase to 1e-12."""
    with mpmath.workdps(30):
        scale = m / mpmath.mpf(X)
        staircase = _staircase(ell1, ell2, mpmath.mpf(X), m)
        exact = 1 + scale * (staircase + _psi2_tail_sum(scale + m * ell1 + 1))
        value = verify_diagonal_identity(ell1, ell2, X, X, m)
        assert abs(float((value - exact) / exact)) < 2e-9
        difference = value - verify_two_variable_identity(ell1, X, X, m)
        scaled = scale * staircase
        assert abs(float((difference - scaled) / scaled)) < 1e-12


def test_identity_arguments_past_float_range_are_quiet():
    """m + a1*X1 past float64 is inf, where psi_2 is 0: the sums stay
    finite and numpy's overflow warning does not reach stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert verify_two_variable_identity(1, 1e308, 1e10, 1) == 1.0
        assert math.isfinite(verify_diagonal_identity(1, 2, 1e308, 1e10, 1))


def test_identity_cutoff_errors():
    with pytest.raises(CutoffTooSmall):
        verify_two_variable_identity(2, 0.5, 0.5, 100, tail_cutoff=50)
    with pytest.raises(CutoffTooSmall):
        verify_two_variable_identity(2, 0.5, 0.5, 100, tail_cutoff=201)
    with pytest.raises(CutoffTooSmall):
        verify_diagonal_identity(2, 3, 1 / 3, 1 / 2, 100, tail_cutoff=150)


def test_identity_input_validation():
    with pytest.raises(NonPositiveArgument):
        verify_power_identity(2, 0.0, 10)
    with pytest.raises(ValueError):
        verify_diagonal_identity(0, 1, 0.5, 0.5, 10)
