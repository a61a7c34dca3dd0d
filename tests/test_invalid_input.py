from fractions import Fraction as F

import pytest

from newton_segre import (EstimatorConfig, GeneralizedSimplex, InvalidInput,
                          TruncatedSeries, bernoulli, convergence_report, estimate,
                          evaluate, make_ideal, make_piece, polygamma, solve_lp,
                          verify_two_variable_identity)
from newton_segre.decompose import piece_membership
from newton_segre.linalg import det

_FLAT = GeneralizedSimplex(((F(0), F(0)), (F(1), F(1)), (F(2), F(2))), frozenset(), 1)
_SERIES = TruncatedSeries(2, 3)


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
], ids=["bernoulli", "polygamma-order", "det-non-square", "make_piece-shape",
        "piece_membership-singular", "series-nvars", "series-bound",
        "series-exponent-arity", "series-mismatch", "piece-point-arity",
        "estimate-X-length", "convergence-X-length", "identity-tolerance",
        "solve_lp-negative-target", "solve_lp-zero-point"])
def test_caller_input_errors_are_typed(call):
    """Bad caller input raises InvalidInput, which is still a ValueError."""
    with pytest.raises(InvalidInput):
        call()
