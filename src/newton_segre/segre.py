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
generators, the jacobian an integer determinant). Written as jacobian * X^e0
* 1 / prod_k (1 + v_k . X), with e0 marking the axes that are not rays, a
piece needs the quotient only to degree D - |e0|, the degrees that X^e0
leaves below the bound D. segre_class builds one series.GradedIndex to
degree D per call, solves each piece's quotient on a prefix of it through
series._quotient, dividing by each linear form in turn, adds every piece
shifted by X^e0 into one dense int coefficient list, and types the class
once.

Summing the expansions over a cone decomposition of the region gives the
multivariate class; substituting every X_i by the hyperplane class H and
truncating above the ambient dimension gives the pushforward. That
substitution is a ring map that commutes with truncation at total degree,
so segre_class also sums each piece's image jacobian * H^|e0| / prod_k (1 +
|v_k| H) mod H^(D+1), |v| the coordinate sum, on its own, and raises
InternalInconsistency unless the two pushforwards agree.

Values at a positive point are exact. With X = lx / L over the least common
denominator L, each closed form is the int pair (jacobian * L * prod_{i not
in K} lx_i, prod_k (L + v_k . lx)); the pairs are summed unreduced, pairwise
in a balanced tree, and reduced once, or, when some coordinate was a float,
divided once into the float the exact value rounds to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .decompose import GeneralizedSimplex, cone_decomposition
from .errors import (AmbientTooSmall, EstimateTooLarge, InternalInconsistency, InvalidInput,
                     NonPositiveParameter)
from .ideals import MonomialIdeal, _integers, _rationals
from .polyhedron import newton_polyhedron
from .series import GradedIndex, TruncatedSeries, _quotient

# Largest number of terms one Segre series may hold; each is a slot of the
# graded index (a dict entry, and a list slot per predecessor table built),
# and series of 52,000-65,000 terms took 0.2-0.6 s and 28-29 MiB on a 2-vCPU
# Xeon.
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
    nvars must be the piece's dimension and degree_bound an integer, refused
    as segre_class refuses its series (_index)."""
    nvars, degree_bound = _integers((nvars, degree_bound), "nvars and degree_bound")
    if nvars != piece.n:
        raise InvalidInput(f"a piece in {piece.n} variables expanded in nvars={nvars}")
    index = _index(nvars, degree_bound)
    total = [0] * len(index.codes)
    _add_expansion(total, piece, index)
    return TruncatedSeries(nvars, degree_bound, index.sparse(total))


def _index(nvars: int, degree_bound: int) -> GradedIndex:
    """The graded index of a series in nvars variables to degree_bound.
    InvalidInput for a negative bound; a series that could hold more than
    MAX_SERIES_TERMS terms, C(degree_bound + nvars, nvars), is refused with
    EstimateTooLarge before anything is allocated."""
    if degree_bound < 0:
        raise InvalidInput("degree bound must be non-negative")
    terms = math.comb(degree_bound + nvars, nvars)
    if terms > MAX_SERIES_TERMS:
        raise EstimateTooLarge(
            f"the series to degree {degree_bound} in {nvars} variables holds {terms} terms, "
            f"above the limit of {MAX_SERIES_TERMS}; lower the ambient dimension")
    return GradedIndex(nvars, degree_bound)


def _add_expansion(total: list[int], piece: GeneralizedSimplex, index: GradedIndex) -> None:
    """Add the piece's series, jacobian * X^e0 / prod_k (1 + v_k . X), into
    the dense coefficient list total over index. The quotient is solved on
    the prefix of index up to degree D - |e0| and shifted by X^e0."""
    e0 = [int(axis not in piece.ray_axes) for axis in range(index.nvars)]
    top = index.degree_bound - sum(e0)
    if top < 0:
        return
    q = [piece.jacobian] + [0] * (index.offsets[top + 1] - 1)
    for vertex in piece.finite_vertices if top else ():  # to degree 0 each divisor is 1
        if any(vertex):
            linear = {0: 1, **{u: v for u, v in zip(index.units, vertex) if v}}
            q = _quotient(q, linear, index)
    shift, position = index.code(e0), index.position
    for code, c in zip(index.codes, q):
        total[position[code + shift]] += c


def _add_image(image: list[int], piece: GeneralizedSimplex) -> None:
    """Add the piece's image under X_i -> H, jacobian * H^|e0| / prod_k (1 +
    |v_k| H), into image, the coefficients of H^0..H^D; each division is
    q_d -= |v| q_(d-1)."""
    lift = piece.n - len(piece.ray_axes)
    if lift >= len(image):
        return
    q = [piece.jacobian] + [0] * (len(image) - 1 - lift)
    for vertex in piece.finite_vertices:
        size = sum(vertex)
        for d in range(1, len(q)):
            q[d] -= size * q[d - 1]
    for d, c in enumerate(q):
        image[lift + d] += c


def _exact_point(point: Sequence) -> tuple[list[Fraction], bool]:
    """The coordinates as read by ideals._rationals, and whether some
    coordinate was inexact; each must also be above zero
    (NonPositiveParameter)."""
    xs, inexact = _rationals(point, "parameters")
    if any(x <= 0 for x in xs):
        raise NonPositiveParameter(f"parameters must be positive: {list(point)}")
    return xs, inexact


def _common_denominator(xs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """L, the least common denominator of xs, and the ints lx = L * xs."""
    L = math.lcm(*(x.denominator for x in xs))
    return L, [x.numerator * (L // x.denominator) for x in xs]


def _piece_pair(piece: GeneralizedSimplex, L: int, lx: Sequence[int]) -> tuple[int, int]:
    """The piece's closed form at X = lx/L as an unreduced int pair (num, den).

    With p + 1 = n - |K| + 1 finite vertices (make_piece checks it), the
    powers of L cancel to one: num = jacobian * L * prod_{i not in K} lx_i,
    den = prod_k (L + v_k . lx).
    """
    if len(lx) != piece.n:
        raise InvalidInput(f"a point with {len(lx)} coordinates for a piece in "
                           f"{piece.n} variables")
    num = piece.jacobian * L * math.prod(x for axis, x in enumerate(lx)
                                         if axis not in piece.ray_axes)
    den = math.prod(L + sum(v * x for v, x in zip(vertex, lx))
                    for vertex in piece.finite_vertices)
    return num, den


def piece_value(piece: GeneralizedSimplex, point: Sequence):
    """Closed-form value of the piece integral at a positive point, exact; a
    float when some coordinate of the point is a float."""
    xs, inexact = _exact_point(point)
    return _rational(*_piece_pair(piece, *_common_denominator(xs)), inexact)


def segre_class(ideal: MonomialIdeal, ambient_dim: int) -> SegreClassResult:
    """Segre class inside projective space of the given dimension.

    The multivariate series is truncated at total degree ambient_dim, since
    H^(ambient_dim + 1) = 0 kills everything higher after pushforward. A
    series that could hold more than MAX_SERIES_TERMS terms, C(ambient_dim +
    n, n), is refused with EstimateTooLarge before anything is allocated.
    InternalInconsistency unless the pieces' images under X_i -> H, summed
    apart from the series, equal its pushforward.
    """
    n = ideal.n
    (ambient_dim,) = _integers((ambient_dim,), "ambient_dim")
    if ambient_dim < n - 1:
        raise AmbientTooSmall(
            f"ambient dimension {ambient_dim} cannot contain a scheme in {n} variables")
    index = _index(n, ambient_dim)
    pieces = tuple(cone_decomposition(newton_polyhedron(ideal)))
    total = [0] * len(index.codes)
    image = [0] * (ambient_dim + 1)
    for piece in pieces:
        _add_expansion(total, piece, index)
        _add_image(image, piece)
    multivariate = TruncatedSeries(n, ambient_dim, index.sparse(total))
    pushforward = multivariate.pushforward(ambient_dim)
    if image != [total[0], *pushforward]:
        raise InternalInconsistency(
            f"the pieces' images under X_i -> H sum to {image}, the multivariate "
            f"class pushes forward to {[total[0], *pushforward]}")
    return SegreClassResult(
        ideal=ideal,
        ambient_dim=ambient_dim,
        multivariate=multivariate,
        pushforward=pushforward,
        pieces=pieces,
    )


def evaluate(target: SegreClassResult | Sequence[GeneralizedSimplex], point: Sequence):
    """Value of the class at a positive point: the sum of the closed-form
    piece values over a cone decomposition of the Newton region (a
    SegreClassResult's pieces, or a list of pieces). Exact; a float,
    converted once from the exact sum, when some coordinate is a float."""
    xs, inexact = _exact_point(point)
    L, lx = _common_denominator(xs)
    pieces = target.pieces if isinstance(target, SegreClassResult) else target
    return _rational(*_pair_sum(_piece_pair(piece, L, lx) for piece in pieces), inexact)


def _pair_sum(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """The sum of num/den over int pairs as one unreduced pair, added in a
    balanced tree: each addition takes operands of about equal size, so the
    cost is a few products of the result's size, not quadratic in the number
    of pairs as a left fold is."""
    level = list(pairs)
    while len(level) > 1:
        odd = level[-1:] if len(level) % 2 else []
        level = [(a * d + c * b, b * d)
                 for (a, b), (c, d) in zip(level[::2], level[1::2])] + odd
    return level[0] if level else (0, 1)


def _rational(num: int, den: int, inexact: bool):
    """num/den as a reduced Fraction or, when inexact, as the float it rounds
    to: int true division rounds correctly, so that is float(Fraction(num,
    den)) without the reduction's gcd."""
    return num / den if inexact else Fraction(num, den)
