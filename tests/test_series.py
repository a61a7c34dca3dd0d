from fractions import Fraction as F

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from newton_segre import InvalidInput, TruncatedSeries


def test_monomial_and_add():
    s = TruncatedSeries(2, 3, {(1, 0): 2}) + TruncatedSeries(2, 3, {(0, 1): 3})
    assert s.coefficient((1, 0)) == 2
    assert s.coefficient((0, 1)) == 3
    assert s.coefficient((0, 0)) == 0


def test_truncation_drops_high_degree():
    x = TruncatedSeries(1, 2, {(1,): 1})
    cube = x * x * x
    assert cube.coeffs == {}


def geometric_inverse(f):
    """Oracle: 1 / f by geometric expansion. With f = c0 * (1 + u), c0 = +-1,
    1 / f = c0 * sum_k (-u)^k, summed by repeated full series products."""
    c0 = f.coefficient((0,) * f.nvars)
    u = f * c0 + (-1)
    result = TruncatedSeries.constant(f.nvars, f.degree_bound, 1)
    power = TruncatedSeries.constant(f.nvars, f.degree_bound, 1)
    sign = 1
    for _ in range(f.degree_bound):
        power = power * u
        sign = -sign
        if not power.coeffs:
            break
        result = result + power * sign
    return result * c0


@st.composite
def units_and_dividends(draw):
    """A unit f (constant term +-1) and a series s, in 1-3 variables with a
    degree bound up to 6; terms drawn above the bound are dropped."""
    nvars = draw(st.integers(1, 3))
    bound = draw(st.integers(0, 6))
    terms = st.dictionaries(st.tuples(*[st.integers(0, bound)] * nvars),
                            st.integers(-5, 5), max_size=8)
    unit = {**draw(terms), (0,) * nvars: draw(st.sampled_from((1, -1)))}
    return (TruncatedSeries(nvars, bound, unit),
            TruncatedSeries(nvars, bound, draw(terms)))


@given(units_and_dividends())
def test_division_matches_geometric_oracle(case):
    f, s = case
    assert f.inverse() == geometric_inverse(f)
    assert (s / f) * f == s


def test_division_needs_a_compatible_unit():
    s = TruncatedSeries(2, 3, {(0, 0): 1, (1, 0): 1, (0, 1): 2})
    for bad in (TruncatedSeries(2, 3, {(1, 0): 1}), s * 2, 2,
                TruncatedSeries(2, 4, {(0, 0): 1, (1, 0): 1, (0, 1): 2}),
                TruncatedSeries(3, 3, {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 2})):
        with pytest.raises(InvalidInput):
            s / bad


def test_geometric_inverse_one_variable():
    inv = TruncatedSeries(1, 4, {(0,): 1, (1,): 2}).inverse()
    assert [inv.coefficient((k,)) for k in range(5)] == [1, -2, 4, -8, 16]


def test_inverse_times_original_is_one():
    f = TruncatedSeries(2, 5, {(0, 0): 1, (1, 0): 2, (0, 1): -3})
    product = f * f.inverse()
    assert product == TruncatedSeries.constant(2, 5, 1)


def test_inverse_of_scaled_unit():
    f = TruncatedSeries.constant(1, 3, -1) + TruncatedSeries(1, 3, {(1,): 2})
    inv = f.inverse()
    assert [inv.coefficient((k,)) for k in range(4)] == [-1, -2, -4, -8]
    assert inv * f == TruncatedSeries.constant(1, 3, 1)


def test_inverse_needs_unit():
    with pytest.raises(InvalidInput):
        TruncatedSeries(1, 3, {(1,): 1}).inverse()
    with pytest.raises(InvalidInput):
        (TruncatedSeries.constant(1, 3, 2) + TruncatedSeries(1, 3, {(1,): 1})).inverse()


def test_coefficients_are_integers():
    s = TruncatedSeries(2, 2, {(1, 0): 2, (0, 1): np.int64(3)})
    assert s.coeffs == {(1, 0): 2, (0, 1): 3}
    assert all(type(c) is int for c in s.coeffs.values())
    for bad in (F(2), F(1, 2), 0.5, "1"):
        with pytest.raises(InvalidInput):
            TruncatedSeries(2, 2, {(1, 0): bad})
        with pytest.raises(InvalidInput):
            s * bad


def test_pushforward_buckets_by_total_degree():
    s = (TruncatedSeries(2, 3, {(1, 0): 2})
         + TruncatedSeries(2, 3, {(0, 1): 3})
         + TruncatedSeries(2, 3, {(1, 1): -4}))
    assert s.pushforward(3) == (F(5), F(-4), F(0))


def test_product_against_sympy():
    """Expansion of l1 l2 X Y / ((1 + l1 X)(1 + l2 Y)) matches sympy."""
    l1, l2, bound = 2, 3, 5
    series = (TruncatedSeries(2, bound, {(1, 1): l1 * l2})
              * TruncatedSeries(2, bound, {(0, 0): 1, (1, 0): l1}).inverse()
              * TruncatedSeries(2, bound, {(0, 0): 1, (0, 1): l2}).inverse())
    x, y = sympy.symbols("x y")
    expr = l1 * l2 * x * y / ((1 + l1 * x) * (1 + l2 * y))
    poly = sympy.Poly(sympy.series(sympy.series(expr, x, 0, bound + 1).removeO(),
                                   y, 0, bound + 1).removeO(), x, y)
    for (ex, ey), coeff in zip(poly.monoms(), poly.coeffs()):
        if ex + ey <= bound:
            assert series.coefficient((ex, ey)) == F(int(sympy.numer(coeff)),
                                                     int(sympy.denom(coeff)))
    for (ex, ey), c in series.coeffs.items():
        assert poly.coeff_monomial(x ** ex * y ** ey) == sympy.Rational(c.numerator,
                                                                        c.denominator)


def test_terms_order_deterministic():
    s = (TruncatedSeries(2, 3, {(0, 2): 1})
         + TruncatedSeries(2, 3, {(1, 0): 1})
         + TruncatedSeries(2, 3, {(2, 0): 1}))
    assert [exp for exp, _ in s.terms()] == [(1, 0), (0, 2), (2, 0)]


def test_incompatible_bounds_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries.zero(2, 3) + TruncatedSeries.zero(2, 4)
