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
integer series. A piece is expanded by dividing jacobian * X^e by each
linear form 1 + v_k . X in turn, one total degree at a time: O(terms * n)
per vertex, with no inverse series built, multiplied or cached.

Summing the expansions over a cone decomposition of the region gives the
multivariate class; substituting every X_i by the hyperplane class H and
truncating above the ambient dimension gives the pushforward.

Values at a positive point sum the closed forms in exact rationals, and are
converted to float once, at return, when some coordinate was a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .decompose import GeneralizedSimplex, cone_decomposition
from .errors import AmbientTooSmall, EstimateTooLarge, InvalidInput, NonPositiveParameter
from .ideals import MonomialIdeal, _integers, _rationals
from .polyhedron import newton_polyhedron
from .series import TruncatedSeries

# Largest number of terms one Segre series may hold; each is a dict entry, and
# 2^16 of them take 0.5-1.4 s and 53-64 MiB on a 2-vCPU Xeon.
MAX_SERIES_TERMS = 1 << 16


@dataclass(frozen=True)
class SegreClassResult:
    ideal: MonomialIdeal
    ambient_dim: int
    multivariate: TruncatedSeries
    pushforward: tuple[int, ...]
    pieces: tuple[GeneralizedSimplex, ...]


def integrate_piece(piece: GeneralizedSimplex, nvars: int,
                    degree_bound: int) -> TruncatedSeries:
    """Series expansion of the kernel integral over one generalized simplex;
    nvars must be the piece's dimension and degree_bound an integer."""
    nvars, degree_bound = _integers((nvars, degree_bound), "nvars and degree_bound")
    if nvars != piece.n:
        raise InvalidInput(f"a piece in {piece.n} variables expanded in nvars={nvars}")
    exponent = [0 if axis in piece.ray_axes else 1 for axis in range(nvars)]
    series = TruncatedSeries.monomial(nvars, degree_bound, exponent, piece.jacobian)
    for vertex in piece.finite_vertices:
        if any(vertex):
            series = series / TruncatedSeries.one_plus_linear(nvars, degree_bound, vertex)
    return series


def _exact_point(point: Sequence) -> tuple[list[Fraction], bool]:
    """The coordinates as read by ideals._rationals, and whether some
    coordinate was inexact; each must also be above zero
    (NonPositiveParameter)."""
    xs, inexact = _rationals(point, "parameters")
    if any(x <= 0 for x in xs):
        raise NonPositiveParameter(f"parameters must be positive: {list(point)}")
    return xs, inexact


def piece_value(piece: GeneralizedSimplex, point: Sequence):
    """Closed-form value of the piece integral at a positive point, exact; a
    float when some coordinate of the point is a float."""
    xs, inexact = _exact_point(point)
    if len(xs) != piece.n:
        raise InvalidInput(f"point {tuple(point)} has {len(xs)} coordinates, "
                           f"the piece {piece.n}")
    value = Fraction(piece.jacobian)
    for axis in range(piece.n):
        if axis not in piece.ray_axes:
            value *= xs[axis]
    for vertex in piece.finite_vertices:
        value /= 1 + sum(v * x for v, x in zip(vertex, xs))
    return float(value) if inexact else value


def segre_class(ideal: MonomialIdeal, ambient_dim: int) -> SegreClassResult:
    """Segre class inside projective space of the given dimension.

    The multivariate series is truncated at total degree ambient_dim, since
    H^(ambient_dim + 1) = 0 kills everything higher after pushforward. A
    series that could hold more than MAX_SERIES_TERMS terms, C(ambient_dim +
    n, n), is refused with EstimateTooLarge before anything is allocated.
    """
    n = ideal.n
    (ambient_dim,) = _integers((ambient_dim,), "ambient_dim")
    if ambient_dim < n - 1:
        raise AmbientTooSmall(
            f"ambient dimension {ambient_dim} cannot contain a scheme in {n} variables")
    terms = math.comb(ambient_dim + n, n)
    if terms > MAX_SERIES_TERMS:
        raise EstimateTooLarge(
            f"the series to degree {ambient_dim} in {n} variables holds {terms} terms, "
            f"above the limit of {MAX_SERIES_TERMS}; lower the ambient dimension")
    pieces = tuple(cone_decomposition(newton_polyhedron(ideal)))
    coeffs: dict[tuple[int, ...], int] = {}
    for piece in pieces:
        for exp, c in integrate_piece(piece, n, ambient_dim).coeffs.items():
            coeffs[exp] = coeffs.get(exp, 0) + c
    total = TruncatedSeries(n, ambient_dim, coeffs)
    return SegreClassResult(
        ideal=ideal,
        ambient_dim=ambient_dim,
        multivariate=total,
        pushforward=total.pushforward(ambient_dim),
        pieces=pieces,
    )


def evaluate(target: SegreClassResult | Sequence[GeneralizedSimplex], point: Sequence):
    """Value of the class at a positive point: the sum of the closed-form
    piece values over a cone decomposition of the Newton region (a
    SegreClassResult's pieces, or a list of pieces). Exact; a float,
    converted once from the exact sum, when some coordinate is a float."""
    xs, inexact = _exact_point(point)
    pieces = target.pieces if isinstance(target, SegreClassResult) else target
    total = sum((piece_value(piece, xs) for piece in pieces), Fraction(0))
    return float(total) if inexact else total
