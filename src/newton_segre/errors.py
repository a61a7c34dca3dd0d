"""Exception types shared across the package."""


class NewtonSegreError(Exception):
    """Base class for all errors raised by this package."""


class ZeroGenerator(NewtonSegreError):
    """The zero exponent vector was supplied: the ideal would be the unit ideal."""


class DimensionMismatch(NewtonSegreError):
    """An exponent vector or point has the wrong number of coordinates."""


class NegativeCoordinate(NewtonSegreError):
    """A point expected to lie in the non-negative orthant has a negative entry."""


class ParseError(NewtonSegreError):
    """Ideal text could not be parsed.

    Carries ``position``, the character offset where parsing failed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DegenerateFacet(NewtonSegreError):
    """A facet triangulation produced a zero-volume piece. Indicates a bug."""


class AmbientTooSmall(NewtonSegreError):
    """Ambient projective dimension below the number of variables minus one."""


class NonPositiveParameter(NewtonSegreError):
    """An evaluation parameter that must be positive was not."""


class NonPositiveArgument(NewtonSegreError):
    """Polygamma argument must be positive in this implementation."""


class PrecisionUnreachable(NewtonSegreError):
    """Requested tolerance is below the floor of the asymptotic expansion."""


class CutoffTooSmall(NewtonSegreError):
    """A truncation cutoff leaves an estimated tail above its tolerance or target."""


class InvalidInput(NewtonSegreError, ValueError):
    """A user-supplied value is out of range or malformed."""


class EstimateTooLarge(NewtonSegreError):
    """An estimate would exceed a fixed work or integer-range budget; the
    message states the cost."""


class InternalInconsistency(NewtonSegreError):
    """Two independent routes to the same exact result disagreed. Indicates a
    bug; raised instead of asserting so the check survives ``python -O``."""
