from fractions import Fraction as F

import numpy as np
import pytest
import sympy

from newton_segre import InvalidInput, TruncatedSeries


def test_monomial_and_add():
    s = TruncatedSeries.monomial(2, 3, (1, 0), 2) + TruncatedSeries.monomial(2, 3, (0, 1), 3)
    assert s.coefficient((1, 0)) == 2
    assert s.coefficient((0, 1)) == 3
    assert s.coefficient((0, 0)) == 0


def test_truncation_drops_high_degree():
    x = TruncatedSeries.monomial(1, 2, (1,))
    cube = x * x * x
    assert cube.coeffs == {}


def test_geometric_inverse_one_variable():
    inv = TruncatedSeries.one_plus_linear(1, 4, (2,)).inverse()
    assert [inv.coefficient((k,)) for k in range(5)] == [1, -2, 4, -8, 16]


def test_inverse_times_original_is_one():
    f = TruncatedSeries.one_plus_linear(2, 5, (2, -3))
    product = f * f.inverse()
    assert product == TruncatedSeries.constant(2, 5, 1)


def test_inverse_of_scaled_unit():
    f = TruncatedSeries.constant(1, 3, -1) + TruncatedSeries.monomial(1, 3, (1,), 2)
    inv = f.inverse()
    assert [inv.coefficient((k,)) for k in range(4)] == [-1, -2, -4, -8]
    assert inv * f == TruncatedSeries.constant(1, 3, 1)


def test_inverse_needs_unit():
    with pytest.raises(InvalidInput):
        TruncatedSeries.monomial(1, 3, (1,)).inverse()
    with pytest.raises(InvalidInput):
        (TruncatedSeries.constant(1, 3, 2) + TruncatedSeries.monomial(1, 3, (1,))).inverse()


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
    s = (TruncatedSeries.monomial(2, 3, (1, 0), 2)
         + TruncatedSeries.monomial(2, 3, (0, 1), 3)
         + TruncatedSeries.monomial(2, 3, (1, 1), -4))
    assert s.pushforward(3) == (F(5), F(-4), F(0))


def test_product_against_sympy():
    """Expansion of l1 l2 X Y / ((1 + l1 X)(1 + l2 Y)) matches sympy."""
    l1, l2, bound = 2, 3, 5
    series = (TruncatedSeries.monomial(2, bound, (1, 1), l1 * l2)
              * TruncatedSeries.one_plus_linear(2, bound, (l1, 0)).inverse()
              * TruncatedSeries.one_plus_linear(2, bound, (0, l2)).inverse())
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
    s = (TruncatedSeries.monomial(2, 3, (0, 2))
         + TruncatedSeries.monomial(2, 3, (1, 0))
         + TruncatedSeries.monomial(2, 3, (2, 0)))
    assert [exp for exp, _ in s.terms()] == [(1, 0), (0, 2), (2, 0)]


def test_incompatible_bounds_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries.zero(2, 3) + TruncatedSeries.zero(2, 4)
