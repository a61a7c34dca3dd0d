import math
from fractions import Fraction as F

import pytest

from newton_segre import (EstimatorConfig, GeneralizedSimplex, InvalidInput,
                          TruncatedSeries, bernoulli, cone_decomposition,
                          convergence_report, estimate, evaluate, in_newton_region,
                          kernel_term, make_ideal, make_piece, mode_agreement_report,
                          newton_polyhedron, polygamma, segre_class, solve_lp,
                          verify_diagonal_identity, verify_power_identity,
                          verify_two_variable_identity)
from newton_segre.decompose import piece_membership
from newton_segre.lct import lct_condition, region_condition_via_lct
from newton_segre.linalg import det
from newton_segre.polyhedron import contains

_FLAT = GeneralizedSimplex(((0, 0), (1, 1), (2, 2)), frozenset(), 1)
_IDEAL = make_ideal(2, [(2, 0), (1, 1), (0, 3)])
_SERIES = TruncatedSeries(2, 3)
_POLY = newton_polyhedron(_IDEAL)


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
    lambda: verify_two_variable_identity(2, 0.5, 0.5, 10, tolerance=0.0),
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
    lambda: mode_agreement_report(_IDEAL, 2, scan_cutoff=8.0),
    lambda: region_condition_via_lct(_IDEAL, (2, 3), 2.5),
    lambda: lct_condition(_IDEAL, (2, 3), F(5, 2)),
    lambda: segre_class(_IDEAL, 2.5),
], ids=["bernoulli", "polygamma-order", "det-non-square", "make_piece-shape",
        "piece_membership-singular", "series-nvars", "series-bound",
        "series-exponent-arity", "series-mismatch", "piece-point-arity",
        "estimate-X-length", "convergence-X-length", "identity-tolerance",
        "solve_lp-negative-target", "solve_lp-zero-point", "polygamma-nan",
        "polygamma-float-order", "two-var-infinite-X2", "diagonal-infinite-X2",
        "contains-nan", "contains-inf", "region-nan", "region-inf",
        "vertex-order-missing-point", "make_piece-float-vertex",
        "make_piece-rational-vertex", "piece_membership-point-arity",
        "power-float-ell", "two-var-fraction-ell", "two-var-float-cutoff",
        "diagonal-float-ell2", "config-bool-m", "config-float-cutoff",
        "kernel-float-m", "convergence-float-m", "agreement-float-m",
        "agreement-float-cutoff", "region-lct-float-m", "lct-condition-fraction-m",
        "segre-float-ambient"])
def test_caller_input_errors_are_typed(call):
    """Bad caller input raises InvalidInput, which is still a ValueError."""
    with pytest.raises(InvalidInput):
        call()
