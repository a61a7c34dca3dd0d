"""Exact Newton polyhedra, log canonical thresholds and Segre classes of
monomial ideals, a finite lattice-sum estimator converging to the same
values, and polygamma-based checks of the corresponding closed-form
identities."""

from .decompose import GeneralizedSimplex, cone_decomposition, make_piece
from .errors import (AmbientTooSmall, CutoffTooSmall, DegenerateFacet,
                     DimensionMismatch, EstimateTooLarge, InternalInconsistency,
                     InvalidInput, NegativeCoordinate, NewtonSegreError, NonPositiveArgument,
                     NonPositiveParameter, ParseError, PrecisionUnreachable,
                     ZeroGenerator)
from .ideals import (MonomialIdeal, make_ideal, monomial_str, parse_ideal,
                     serialize_ideal, stretch)
from .lattice import (EstimatorConfig, ConvergenceRow, ModeAgreement,
                      convergence_report, estimate, kernel_term,
                      mode_agreement_report)
from .lct import (cross_stretch_factors, diagonal_exit, lct, lct_condition,
                  region_condition_via_lct)
from .polygamma import (bernoulli, polygamma, polygamma_extended,
                        sum_inverse_cubes, verify_diagonal_identity,
                        verify_power_identity, verify_two_variable_identity)
from .polyhedron import (Facet, NewtonPolyhedron, contains, contains_lp,
                         in_newton_region, newton_polyhedron,
                         polyhedron_to_json)
from .segre import SegreClassResult, evaluate, integrate_piece, segre_class
from .series import TruncatedSeries
from .simplex import feasible, solve_lp

__version__ = "0.1.0"

__all__ = [
    "AmbientTooSmall", "ConvergenceRow",
    "CutoffTooSmall", "DegenerateFacet", "DimensionMismatch",
    "EstimateTooLarge", "EstimatorConfig", "Facet", "GeneralizedSimplex",
    "InternalInconsistency", "InvalidInput", "ModeAgreement", "MonomialIdeal",
    "NegativeCoordinate", "NewtonPolyhedron", "NewtonSegreError",
    "NonPositiveArgument", "NonPositiveParameter", "ParseError",
    "PrecisionUnreachable", "SegreClassResult", "TruncatedSeries",
    "ZeroGenerator", "bernoulli", "cone_decomposition",
    "contains", "contains_lp", "convergence_report", "cross_stretch_factors",
    "diagonal_exit", "estimate", "evaluate", "feasible", "in_newton_region",
    "integrate_piece", "kernel_term", "lct", "lct_condition", "make_ideal",
    "make_piece", "mode_agreement_report", "monomial_str",
    "newton_polyhedron", "parse_ideal", "polygamma", "polygamma_extended",
    "polyhedron_to_json", "region_condition_via_lct", "segre_class",
    "serialize_ideal", "solve_lp", "stretch", "sum_inverse_cubes",
    "verify_diagonal_identity", "verify_power_identity",
    "verify_two_variable_identity",
]
