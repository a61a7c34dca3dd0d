import math
from fractions import Fraction as F

import pytest

from newton_segre import (EstimatorConfig, GeneralizedSimplex, InvalidInput,
                          NegativeCoordinate, TruncatedSeries, bernoulli,
                          cone_decomposition, contains_lp, convergence_report,
                          cross_stretch_factors, estimate, evaluate, feasible,
                          in_newton_region, integrate_piece, kernel_term, make_ideal,
                          make_piece, mode_agreement_report, newton_polyhedron,
                          parse_ideal, polygamma, polygamma_extended, segre_class,
                          solve_lp, sum_inverse_cubes, verify_diagonal_identity,
                          verify_power_identity, verify_two_variable_identity)
from newton_segre.decompose import piece_membership
from newton_segre.lct import lct_condition, region_condition_via_lct
from newton_segre.linalg import det
from newton_segre.polyhedron import contains

_FLAT = GeneralizedSimplex(((0, 0), (1, 1), (2, 2)), frozenset(), 1)
_IDEAL = make_ideal(2, [(2, 0), (1, 1), (0, 3)])
_SERIES = TruncatedSeries(2, 3)
_POLY = newton_polyhedron(_IDEAL)
_TRIANGLE = make_piece([(0, 0), (1, 0), (0, 1)], [])


@pytest.mark.parametrize("call", [
    lambda: bernoulli(0),
    lambda: polygamma(0, 1.0),
    lambda: det([[1, 2, 3], [4, 5, 6]]),
    lambda: make_piece([(1, 0), (0, 1)], [0, 1]),
    lambda: piece_membership(_FLAT, (F(1, 2), F(1, 3))),
    lambda: TruncatedSeries(0, 3),
    lambda: TruncatedSeries(2, -1),
    lambda: TruncatedSeries(2, 3, {(1, 0, 0): 1}),
    lambda: _SERIES + TruncatedSeries(2, 4),
    lambda: evaluate([make_piece([(0, 0), (1, 0), (0, 1)], [])], [F(1)]),
    lambda: estimate(make_ideal(3, [(1, 1, 0), (0, 0, 1)]), EstimatorConfig(10, (1, 1))),
    lambda: convergence_report(make_ideal(2, [(1, 1)]), (1,), [10, 20]),
    lambda: solve_lp([(1, 0), (0, 1)], (1, F(-1, 2))),
    lambda: solve_lp([(0, 0), (1, 1)]),
    lambda: polygamma(1, math.nan),
    lambda: polygamma(2.0, 1.0),
    lambda: verify_two_variable_identity(2, 0.5, math.inf, 10),
    lambda: verify_diagonal_identity(2, 3, 0.5, math.inf, 10),
    lambda: contains(_POLY, (math.nan, 1)),
    lambda: contains(_POLY, (1, math.inf)),
    lambda: in_newton_region(_POLY, (math.nan, 1)),
    lambda: in_newton_region(_POLY, (1, math.inf)),
    lambda: cone_decomposition(_POLY, [(2, 0), (0, 3)]),
    lambda: make_piece([(0, 0), (0.5, 1), (1, 0)], []),
    lambda: make_piece([(0, 0), (F(1, 2), 1), (1, 0)], []),
    lambda: piece_membership(make_piece([(0, 0), (1, 0), (0, 1)], []), (F(1, 3),)),
    # counts are integer types: a float, a bool or a Fraction is refused
    lambda: verify_power_identity(2.5, 0.5, 10),
    lambda: verify_two_variable_identity(F(5, 2), 0.5, 0.5, 10),
    lambda: verify_two_variable_identity(2, 0.5, 0.5, 10, tail_cutoff=3000.5),
    lambda: verify_diagonal_identity(2, 1.5, 0.5, 0.5, 10),
    lambda: EstimatorConfig(m=True, X=(1, 1)),
    lambda: EstimatorConfig(m=10, X=(1, 1), ray_cutoff=30.5),
    lambda: kernel_term((1, 2), 2.5, (1, 1)),
    lambda: convergence_report(_IDEAL, (1, 1), [2.5]),
    lambda: mode_agreement_report(_IDEAL, 2.5),
    lambda: region_condition_via_lct(_IDEAL, (2, 3), 2.5),
    lambda: lct_condition(_IDEAL, (2, 3), F(5, 2)),
    lambda: segre_class(_IDEAL, 2.5),
    # ray axes are distinct integers in 0..n-1, vertices one or more points
    # of one length
    lambda: make_piece([(0, 0), (1, 0)], [5]),
    lambda: make_piece([(0, 0), (1, 0)], [-1]),
    lambda: make_piece([(0, 0), (1, 0)], [1.5]),
    lambda: make_piece([(0, 0), (1, 0)], [True]),
    lambda: make_piece([(0, 0), (1, 0)], [1, 1]),
    lambda: make_piece([(0, 0), (1, 0, 0), (0, 1)], []),
    lambda: make_piece([], [0, 1]),
    # counts and arity at the other entry points
    lambda: integrate_piece(_TRIANGLE, 3, 2),
    lambda: integrate_piece(_TRIANGLE, 1, 2),
    lambda: integrate_piece(_TRIANGLE, 2, 2.5),
    lambda: TruncatedSeries(1.5, 2),
    lambda: _SERIES.pushforward(2.5),
    lambda: bernoulli(2.5),
    lambda: bernoulli(True),
    lambda: polygamma(True, 1.0),
    lambda: polygamma_extended(1.5, 1.0),
    lambda: make_ideal(True, [(1,)]),
    lambda: parse_ideal("x1", n="2"),
    lambda: solve_lp([(1, 0)], (1,)),
    lambda: solve_lp([]),
    lambda: solve_lp([(1, 0), (1,)]),
    lambda: solve_lp([(F(1, 2), 1)]),
    lambda: feasible([(1, 0)], (1, 1, 1)),
    lambda: feasible([(1, 0)], (-1, 1, 1)),
    lambda: solve_lp([(1, 0)], ("1", 1)),
    lambda: feasible([(1, 0)], ("1", 1)),
    lambda: cross_stretch_factors((0, 2)),
    lambda: cross_stretch_factors((2.5, 2)),
    # points are finite reals, never strings
    lambda: contains(_POLY, ("1/2", "3")),
    lambda: contains_lp(_POLY, ("1/2", "3")),
    lambda: in_newton_region(_POLY, ("1/2", "3")),
    lambda: piece_membership(_TRIANGLE, ("1/3", "1/3")),
    # identity points are finite reals inside the float64 range
    lambda: verify_power_identity(2, "0.5", 10),
    lambda: verify_two_variable_identity(2, "0.5", 0.5, 10),
    lambda: verify_diagonal_identity(2, 3, "0.5", 0.5, 10),
    lambda: verify_power_identity(2, math.inf, 10),
    lambda: verify_power_identity(2, F(1, 10 ** 400), 10),
    lambda: verify_two_variable_identity(2, F(1, 10 ** 400), 0.5, 10),
    # polygamma counts are integers, points finite reals, arrays float64
    lambda: polygamma(1, "a"),
    lambda: polygamma(1, ["a", 1.0]),
    lambda: polygamma(1, 10 ** 400),
    lambda: polygamma_extended(1, "a"),
    lambda: sum_inverse_cubes(1.5, 3, 0.5),
    lambda: sum_inverse_cubes(1, 3, "a"),
    # vertex_order entries are integer points
    lambda: cone_decomposition(_POLY, [(2, 0), (1, 1), (0, 3), 5]),
    lambda: cone_decomposition(_POLY, [(2, 0), (1, 1), (0, 3), "ab"]),
    # vertex_order itself is an iterable; m is positive
    lambda: cone_decomposition(_POLY, 5),
    lambda: mode_agreement_report(_IDEAL, 0),
    lambda: mode_agreement_report(_IDEAL, -1),
    # the estimator's X is a point, not a number
    lambda: EstimatorConfig(m=5, X=3),
    # series exponents are tuples of nvars non-negative integers
    lambda: TruncatedSeries(2, 3, {(-1, 0): 1}),
    lambda: TruncatedSeries(2, 3, {(1.5, 0): 1}),
    lambda: TruncatedSeries(2, 3, {("a", 0): 1}),
    lambda: TruncatedSeries(2, 3, {5: 1}),
    lambda: TruncatedSeries(2, 3, {(-1, 2): 1}),
    # packing LP points are non-negative
    lambda: solve_lp([(-1, -1)]),
    lambda: solve_lp([(1, -1)]),
    lambda: feasible([(-1, -1)], (1, 1)),
    # X is read before its length is taken
    lambda: convergence_report(_IDEAL, 3, [10]),
    lambda: kernel_term((1, 2), 3, 5),
    # the tail tolerance is a positive real
    lambda: EstimatorConfig(m=5, X=(1, 1), tail_tolerance="a"),
    lambda: EstimatorConfig(m=5, X=(1, 1), tail_tolerance=math.nan),
    lambda: EstimatorConfig(m=5, X=(1, 1), tail_tolerance=-1.0),
], ids=["bernoulli", "polygamma-order", "det-non-square", "make_piece-shape",
        "piece_membership-singular", "series-nvars", "series-bound",
        "series-exponent-arity", "series-mismatch", "piece-point-arity",
        "estimate-X-length", "convergence-X-length",
        "solve_lp-negative-target", "solve_lp-zero-point", "polygamma-nan",
        "polygamma-float-order", "two-var-infinite-X2", "diagonal-infinite-X2",
        "contains-nan", "contains-inf", "region-nan", "region-inf",
        "vertex-order-missing-point", "make_piece-float-vertex",
        "make_piece-rational-vertex", "piece_membership-point-arity",
        "power-float-ell", "two-var-fraction-ell", "two-var-float-cutoff",
        "diagonal-float-ell2", "config-bool-m", "config-float-cutoff",
        "kernel-float-m", "convergence-float-m", "agreement-float-m",
        "region-lct-float-m", "lct-condition-fraction-m",
        "segre-float-ambient", "make_piece-axis-out-of-range",
        "make_piece-axis-negative", "make_piece-axis-float", "make_piece-axis-bool",
        "make_piece-axis-repeated", "make_piece-unequal-vertices",
        "make_piece-no-vertex", "integrate-nvars-above", "integrate-nvars-below",
        "integrate-float-bound", "series-float-nvars", "pushforward-float-degree",
        "bernoulli-float", "bernoulli-bool", "polygamma-bool-order",
        "polygamma-extended-float-order", "make_ideal-bool-n", "parse-string-n",
        "solve_lp-short-target", "solve_lp-no-point", "solve_lp-unequal-points",
        "solve_lp-fraction-point", "feasible-long-target",
        "feasible-long-negative-target", "solve_lp-string-target",
        "feasible-string-target", "cross-stretch-zero", "cross-stretch-float",
        "contains-string", "contains_lp-string", "region-string",
        "piece_membership-string", "power-string-X", "two-var-string-X1",
        "diagonal-string-X1", "power-infinite-X", "power-underflowing-X",
        "two-var-underflowing-X1", "polygamma-string", "polygamma-string-array",
        "polygamma-huge-int", "polygamma-extended-string", "sum-cubes-float-lo",
        "sum-cubes-string-y", "vertex-order-int-entry", "vertex-order-string-entry",
        "vertex-order-int", "agreement-zero-m", "agreement-negative-m",
        "config-scalar-X",
        "series-negative-exponent", "series-float-exponent", "series-string-exponent",
        "series-int-key", "monomial-negative-exponent",
        "solve_lp-negative-point", "solve_lp-mixed-sign-point",
        "feasible-negative-point", "convergence-scalar-X", "kernel-scalar-X",
        "config-string-tolerance", "config-nan-tolerance", "config-negative-tolerance"])
def test_caller_input_errors_are_typed(call):
    """Bad caller input raises InvalidInput, which is still a ValueError."""
    with pytest.raises(InvalidInput):
        call()


def test_negative_piece_vertex_is_refused():
    """A piece must lie in the orthant: with the vertex (-1, 0), 1 + v.X
    vanishes at X = (1, 1) and evaluate would divide by zero there."""
    with pytest.raises(NegativeCoordinate):
        make_piece([(0, 0), (-1, 0), (0, 1)], [])
