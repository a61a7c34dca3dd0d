"""Exact Segre class of the subscheme cut out by a monomial ideal.

The class is the integral of the kernel n! X_1..X_n / (1 + a.X)^(n+1) over
the Newton region. On a generalized simplex with apex v_0, further vertices
v_1..v_p and ray axes K the integral has the closed form

    jacobian * (prod_{i not in K} X_i) * prod_{k=0..p} 1 / (1 + v_k . X),

obtained by integrating the ray directions first (each drops the exponent by
one and cancels one numerator variable exactly) and then applying the
standard simplex identity p! * integral over the p-simplex of
dl / (sum theta_i c_i)^(p+1) = 1 / (c_0 ... c_p). The formula is gated by a
numerical quadrature oracle in the test suite before anything downstream is
trusted.

Every factor of that product has integer coefficients (the vertices are
generators, the jacobian an integer determinant), so the expansions run on
int-coefficient series. Each vertex is shared by many pieces; its factor
1 / (1 + v . X) is expanded once per (nvars, degree bound, vertex) and
reused.

Summing the expansions over a cone decomposition of the region gives the
multivariate class; substituting every X_i by the hyperplane class H and
truncating above the ambient dimension gives the pushforward.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .decompose import GeneralizedSimplex, cone_decomposition
from .errors import AmbientTooSmall, NonPositiveParameter
from .ideals import MonomialIdeal
from .polyhedron import newton_polyhedron
from .series import TruncatedSeries


@dataclass(frozen=True)
class SegreClassResult:
    ideal: MonomialIdeal
    ambient_dim: int
    multivariate: TruncatedSeries
    pushforward: tuple[Fraction | int, ...]
    pieces: tuple[GeneralizedSimplex, ...]

    def pushforward_strings(self) -> list[str]:
        return [str(c) for c in self.pushforward]


@lru_cache(maxsize=1024)
def _vertex_factor(nvars: int, degree_bound: int,
                   vertex: tuple[Fraction | int, ...]) -> TruncatedSeries:
    """1 / (1 + vertex . X) as a truncated series; callers must not mutate it."""
    return TruncatedSeries.one_plus_linear(nvars, degree_bound, vertex).inverse()


def integrate_piece(piece: GeneralizedSimplex, nvars: int,
                    degree_bound: int) -> TruncatedSeries:
    """Series expansion of the kernel integral over one generalized simplex."""
    exponent = [0 if axis in piece.ray_axes else 1 for axis in range(nvars)]
    series = TruncatedSeries.monomial(nvars, degree_bound, exponent, piece.jacobian)
    for vertex in piece.finite_vertices:
        if any(vertex):
            series = series * _vertex_factor(nvars, degree_bound, vertex)
    return series


def piece_value(piece: GeneralizedSimplex, point: Sequence):
    """Closed-form value of the piece integral at a positive point."""
    value = piece.jacobian if isinstance(point[0], (Fraction, int)) else float(piece.jacobian)
    for axis in range(piece.n):
        if axis not in piece.ray_axes:
            value = value * point[axis]
    for vertex in piece.finite_vertices:
        den = 1 + sum(v * x for v, x in zip(vertex, point))
        value = value / den
    return value


def segre_class(ideal: MonomialIdeal, ambient_dim: int) -> SegreClassResult:
    """Segre class inside projective space of the given dimension.

    The multivariate series is truncated at total degree ambient_dim, since
    H^(ambient_dim + 1) = 0 kills everything higher after pushforward.
    """
    n = ideal.n
    if ambient_dim < n - 1:
        raise AmbientTooSmall(
            f"ambient dimension {ambient_dim} cannot contain a scheme in {n} variables")
    pieces = tuple(cone_decomposition(newton_polyhedron(ideal)))
    total = TruncatedSeries.zero(n, ambient_dim)
    for piece in pieces:
        total = total + integrate_piece(piece, n, ambient_dim)
    return SegreClassResult(
        ideal=ideal,
        ambient_dim=ambient_dim,
        multivariate=total,
        pushforward=total.pushforward(ambient_dim),
        pieces=pieces,
    )


def evaluate(target: SegreClassResult | TruncatedSeries, point: Sequence):
    """Value at positive parameters.

    For a SegreClassResult this sums the closed-form piece values and is
    exact when the point is rational; for a bare TruncatedSeries it evaluates
    the truncated polynomial, which is only an approximation of the class.
    """
    values = list(point)
    if any((isinstance(x, (Fraction, int)) and x <= 0) or
           (isinstance(x, float) and x <= 0) for x in values):
        raise NonPositiveParameter(f"evaluation needs positive parameters: {values}")
    if isinstance(target, TruncatedSeries):
        return target.evaluate(values)
    exact = all(isinstance(x, (Fraction, int)) for x in values)
    xs = [Fraction(x) for x in values] if exact else [float(x) for x in values]
    total = Fraction(0) if exact else 0.0
    for piece in target.pieces:
        total += piece_value(piece, xs)
    return total
