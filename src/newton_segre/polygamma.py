"""Polygamma kernels and the closed-form identity checks built on them.

The r-th polygamma function is computed from its defining series through the
standard two-step scheme: shift the argument up by the exact recurrence

    psi_r(x) = psi_r(x + 1) + (-1)^r * r! / x^(r+1)

until it clears a fixed threshold, then evaluate the large-argument
asymptotic expansion (DLMF 25.11.43)

    psi_r(x) ~ (-1)^(r+1) ( (r-1)! x^-r + r!/2 x^-(r+1)
               + sum_k B_2k (r+2k-1)! / (2k)! * x^(-r-2k) )

with a fixed number of terms per order: term k = K(r) is the first whose
size at x = SHIFT_THRESHOLD is below 2^-60 of the leading term, and it and
all later terms are dropped (K = 7..11 for r = 1..8). Because K depends on
r only, every element of an array argument is computed exactly as a scalar
call would compute it. One min over the argument decides its checks and
the shift: a nan element makes the min nan (InvalidInput), a min <= 0 is
off the domain (NonPositiveArgument), and only a min below the threshold
gathers the low elements, which are shifted in arrays of their own; an
array wholly above it (as the lattice sums mostly pass) skips the shift.
Then, with inv = 1/x, the sum over k is a Horner polynomial in inv^2, x^-r
is inv multiplied by itself r - 1 times (no pow), and the leading term is
added last. The accuracy floor at an element is the size of its first
omitted term, at most 3.6e-20 for every order 1..38 at x = SHIFT_THRESHOLD,
so the result is good to float64 rounding. Every order above 38 raises
PrecisionUnreachable, since no term within _MAX_BERNOULLI is small enough.
The coefficient table is built in ints from the integer tangent numbers,
with no Bernoulli number or Fraction in between; bernoulli() derives the
exact Bernoulli numbers from the same tangent numbers.

The verify_* functions evaluate, at finite refinement m, the lattice-sum
identities whose limits are the closed forms l X / (1 + l X) and
l1 l2 X1 X2 / ((1 + l1 X1)(1 + l2 X2)); callers compare the returned values
against those targets. The two-variable and diagonal checks end in one
tail sum, cut at tail_cutoff (by default the smallest cutoff whose
leading-order rest is below a fixed 1e-4), plus the rest past the cutoff
to two orders (see _tail), which leaves a relative error of about 1e-9 at
the default cutoff. They count their psi_2 terms before allocating
anything and refuse more than MAX_COLUMNS (2^22) of them with
EstimateTooLarge stating the count; below that they sum the terms in blocks
of _CHUNK, so their memory does not grow with m or the cutoff.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache

# numpy is imported inside the functions that use it, so the exact-geometry
# commands (lct, segre, diagram) never load it (about 14 MiB and tens of ms).

from .errors import (CutoffTooSmall, EstimateTooLarge, InvalidInput, NonPositiveArgument,
                     PrecisionUnreachable)
from .ideals import _integers, _rationals

SHIFT_THRESHOLD = 20.0
_MAX_BERNOULLI = 60

# Largest number of lattice columns (polygamma terms) one lattice estimate or
# identity check may sum; each refuses above it before allocating anything.
# They sum their columns in blocks of about _CHUNK, so memory stays bounded
# and this cap bounds time instead: 2^22 nonempty columns take about 0.15 s
# on a 2-vCPU Xeon. Segre series have their own, smaller budget.
MAX_COLUMNS = 1 << 22
_INT64_MAX = 2 ** 63 - 1
_CHUNK = 1 << 13
# Largest leading-order rest that the identity checks leave past their cutoff.
_REST_TARGET = 1e-4


def _tangent_numbers(K: int) -> list[int]:
    """T_1, ..., T_K, from the integer-only recurrence of Brent and Harvey
    ("Fast computation of Bernoulli, tangent and secant numbers", 2011)."""
    tangent = [0, 1] + [0] * (K - 1)
    for k in range(2, K + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, K + 1):
        for j in range(k, K + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    return tangent[1:]


def bernoulli(K: int) -> tuple[Fraction, ...]:
    """B_2, B_4, ..., B_2K as exact rationals, from the tangent numbers T_k:
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).

    K is read by ideals._integers; the recurrence takes about K^3 steps on
    ever larger integers, so K above _MAX_BERNOULLI raises EstimateTooLarge.
    """
    (K,) = _integers((K,), "K")
    if K < 1:
        raise InvalidInput("need at least one Bernoulli number")
    if K > _MAX_BERNOULLI:
        raise EstimateTooLarge(f"asked for {K} Bernoulli numbers, above {_MAX_BERNOULLI}")
    return tuple(Fraction((-1) ** (k - 1) * 2 * k * t, 4 ** k * (4 ** k - 1))
                 for k, t in enumerate(_tangent_numbers(K), start=1))


@lru_cache(maxsize=None)
def _horner_coefficients(r: int) -> tuple[float, ...]:
    """(c_{K-1}, ..., c_1) for order r.

    c_k = B_2k (r+2k-1)!/(2k)! multiplies x^(-r-2k) in the expansion; K is
    the first k whose term at SHIFT_THRESHOLD is below 2^-60 of the leading
    term (r-1)!/x^r, so term K is the first one omitted. With B_2k written
    through T_k, c_k is the int ratio num/den below, unreduced: int true
    division rounds correctly and the stop test is homogeneous in (num, den),
    so neither needs the ratio in lowest terms.
    """
    # |c_k| x^-2k < 2^-60 (r-1)! at x = SHIFT_THRESHOLD, in integers
    x2 = int(SHIFT_THRESHOLD) ** 2
    for size in (16, _MAX_BERNOULLI):
        coeffs = []
        for k, t in enumerate(_tangent_numbers(size), start=1):
            num = (-1) ** (k - 1) * 2 * k * t * math.factorial(r + 2 * k - 1)
            den = 4 ** k * (4 ** k - 1) * math.factorial(2 * k)
            if abs(num) << 60 < math.factorial(r - 1) * x2 ** k * den:
                return tuple(reversed(coeffs))
            coeffs.append(num / den)
    raise PrecisionUnreachable(
        f"the order-{r} expansion at x = {SHIFT_THRESHOLD} does not reach 2^-60 "
        f"relative accuracy within {_MAX_BERNOULLI} terms")


def _order(r: int) -> int:
    """r read by ideals._integers; InvalidInput unless it is at least 1."""
    (r,) = _integers((r,), "polygamma order")
    if r < 1:
        raise InvalidInput(f"polygamma order must be an integer >= 1, got {r!r}")
    return r


def _floats(values, what: str) -> list[float]:
    """values read by ideals._rationals, as float64; InvalidInput for one
    beyond the float64 range or one that rounds to 0."""
    xs, _ = _rationals(values, what)
    if any(abs(x) > sys.float_info.max or (x and not float(x)) for x in xs):
        raise InvalidInput(f"{what} must lie inside the float64 range: {values!r}")
    return [float(x) for x in xs]


def polygamma(r: int, x):
    """psi_r at positive real x (scalar or array), in float64.

    An ndarray, list or tuple is read by numpy as a whole, any other x by
    _floats. Raises InvalidInput for an order that is not an integer >= 1,
    an x its reader refuses or a nan element, NonPositiveArgument off the
    domain and PrecisionUnreachable for orders above 38.
    """
    import numpy as np
    r = _order(r)
    if not isinstance(x, (np.ndarray, list, tuple)):
        x = _floats((x,), "polygamma argument")[0]
    try:
        arr = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidInput("polygamma argument is not an array of real numbers") from None
    shifted = arr.reshape(-1).astype(np.float64)  # a flat copy the kernel works in
    # one pass for the checks and the shift test: the min is nan when any
    # element is, and an empty array has nothing to check or shift
    least = float(shifted.min()) if shifted.size else math.inf
    if math.isnan(least):
        raise InvalidInput("polygamma argument is nan")
    if least <= 0:
        raise NonPositiveArgument("polygamma implemented for positive arguments only")

    rsign = (-1.0) ** (r + 1)  # psi_r(x) - psi_r(x+1) = (-1)^(r+1) r! / x^(r+1)
    rfact = float(math.factorial(r))
    low = None
    if least < SHIFT_THRESHOLD:  # the shift, on the elements below the threshold alone
        low = np.flatnonzero(shifted < SHIFT_THRESHOLD)
        part = shifted[low]
        correction = np.zeros_like(part)
        comp = np.zeros_like(part)  # Kahan carry for the shift sum
        while True:
            below = part < SHIFT_THRESHOLD
            if not np.any(below):
                break
            term = rsign * rfact / part[below] ** (r + 1)
            y = term - comp[below]
            t = correction[below] + y
            comp[below] = (t - correction[below]) - y
            correction[below] = t
            part[below] += 1.0
        shifted[low] = part

    coeffs = _horner_coefficients(r)
    # In place, in the operation order of
    #   rsign * (power * inv) * (rfact/2 + inv * horner)
    #     + rsign * (r-1)! * power (+ correction, for a shifted element),
    # with power = inv * inv * ... * inv (r factors, left to right); IEEE
    # products and sums commute, so every element is bitwise the value that
    # expression gives.
    inv = 1.0 / shifted
    inv2 = inv * inv
    horner = np.full_like(inv, coeffs[0])  # 0 * inv2 + c_{K-1}, exactly
    for c in coeffs[1:]:
        horner *= inv2
        horner += c
    horner *= inv
    horner += rfact / 2.0
    power = shifted
    power[...] = inv
    for _ in range(r - 1):
        power *= inv
    inv *= power
    inv *= rsign
    inv *= horner
    power *= rsign * float(math.factorial(r - 1))
    inv += power
    if low is not None:
        inv[low] += correction
    return float(inv[0]) if arr.ndim == 0 else inv.reshape(arr.shape)


def polygamma_extended(r: int, x: float) -> float:
    """Guard path: the same scheme evaluated in numpy extended precision."""
    import numpy as np
    r = _order(r)
    (x,) = _floats((x,), "polygamma argument")
    if x <= 0:
        raise NonPositiveArgument("polygamma implemented for positive arguments only")
    ld = np.longdouble
    rsign = ld((-1.0) ** (r + 1))
    rfact = ld(math.factorial(r))
    correction = ld(0.0)
    shifted = ld(x)
    while shifted < ld(SHIFT_THRESHOLD):
        correction += rsign * rfact / shifted ** (r + 1)
        shifted += 1
    value = rsign * rfact * (shifted ** (-r) / r + shifted ** (-r - 1) / 2)
    table = bernoulli(_MAX_BERNOULLI)
    prev = abs(rfact * shifted ** (-r - 1) / 2)
    for k in range(1, _MAX_BERNOULLI + 1):
        frac = table[k - 1] * Fraction(math.factorial(r + 2 * k - 1),
                                       math.factorial(2 * k))
        term = rsign * (ld(frac.numerator) / ld(frac.denominator)) \
            * shifted ** ld(-r - 2 * k)
        if abs(term) >= prev:
            break
        value += term
        prev = abs(term)
    return float(value + correction)


def sum_inverse_cubes(lo: int, hi: int, y: float) -> float:
    """sum_{a=lo}^{hi} 1/(a + y)^3 through polygamma differences; lo and hi
    are read by ideals._integers, y by ideals._rationals."""
    lo, hi = _integers((lo, hi), "lo and hi")
    (y,), _ = _rationals((y,), "y")
    if hi < lo:
        return 0.0
    return (-polygamma(2, lo + y) + polygamma(2, hi + 1 + y)) / 2.0


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def verify_power_identity(ell: int, X: float, m: int) -> float:
    """(m / X) * psi_1(m*ell + m/X); approaches 1 / (1 + ell*X) as m grows."""
    ell, m = _integers((ell, m), "ell and m")
    if ell < 1 or m < 1:
        raise InvalidInput("ell and m must be positive integers")
    (X,) = _floats((X,), "X")
    if X <= 0:
        raise NonPositiveArgument("X must be positive")
    try:
        argument = m * ell + m / X
    except OverflowError:  # m*l beyond the float range
        argument = math.inf
    if not math.isfinite(argument):
        raise InvalidInput("the power identity needs m*l + m/X inside the float64 range")
    return (m / X) * polygamma(1, argument)


def _tail(name: str, first: int, start: int, m: int, X1, X2,
          tail_cutoff: int | None) -> tuple[float, float, float, int, float]:
    """X1, X2, the prefactor m X1 / X2^2, the cutoff and the estimated rest
    of sum_{a1 >= start} psi_2((m + a1 X1 + X2) / X2), the tail both
    two-variable identities end in, for a check summing a1 = first..cutoff.

    The rest is the sum past the cutoff, whose first argument is
    u = (m + X2 + (cutoff + 1) X1) / X2, to two orders: the integral of
    psi_2(y) ~ -y^-2 - y^-3 from u, times the step X2/X1, plus the
    Euler-Maclaurin end term psi_2(u)/2 ~ -1/(2u^2), together
    -(X2/X1)(1/u + 1/(2u^2)) - 1/(2u^2); the error is O(u^-3) times
    X2/X1. X1 and X2 are read by _floats, tail_cutoff by _integers. The
    default cutoff is the smallest whose leading-order rest -(X2/X1)/u is
    below _REST_TARGET, plus headroom. The terms are counted before the
    cutoff is cast to int (the rule's cutoff is a float, infinite when X1
    is tiny); more than MAX_COLUMNS raise EstimateTooLarge, a cutoff below
    start or a leading-order rest above _REST_TARGET CutoffTooSmall.
    """
    X1, X2 = _floats((X1, X2), f"{name} identity X1 and X2")
    if X1 <= 0 or X2 <= 0:
        raise NonPositiveArgument("parameters must be positive")
    if start > _INT64_MAX:
        raise EstimateTooLarge(
            f"{name} identity sums from the index m*l, of {start.bit_length()} bits, "
            f"beyond the int64 limit {_INT64_MAX}; lower l or m")
    try:
        scale = m * X1 / (X2 * X2)
    except ZeroDivisionError:  # X2 * X2 underflows to 0
        scale = math.inf
    if not math.isfinite(scale):
        raise InvalidInput(f"{name} identity needs m*X1/X2^2 inside the float64 range")
    shift = m + X2
    if tail_cutoff is None:
        needed = ((X2 * X2 / X1) / _REST_TARGET - shift) / X1
        tail_cutoff = max(start + 20 * m, needed) + 1
    else:
        (tail_cutoff,) = _integers((tail_cutoff,), "tail_cutoff")
    terms = tail_cutoff - first + 1
    if terms > MAX_COLUMNS:
        raise EstimateTooLarge(
            f"{name} identity needs {terms:.0f} polygamma terms, above the limit "
            f"of {MAX_COLUMNS}; lower m or the cutoff, or raise X1")
    tail_cutoff = int(tail_cutoff)
    if tail_cutoff < start:
        raise CutoffTooSmall(f"tail_cutoff {tail_cutoff} below the first index {start}")
    lead = -(X2 * X2 / X1) / (shift + (tail_cutoff + 1) * X1)
    if abs(lead) > _REST_TARGET:
        raise CutoffTooSmall(
            f"estimated tail {abs(lead):.3e} exceeds {_REST_TARGET:.3e} "
            f"at cutoff {tail_cutoff}")
    # u is the first omitted argument; lead = -(X2/X1)/u, written so that
    # X2/X1 alone cannot overflow
    u = (shift + (tail_cutoff + 1) * X1) / X2
    return X1, X2, scale, tail_cutoff, lead * (1 + 0.5 / u) - 0.5 / (u * u)


def _blocks(start: int, stop: int, width: int = 1):
    """(first, last) half-open ranges covering range(start, stop) in order,
    each of at most _CHUNK elements when every integer stands for `width`
    of them, and of at least one integer."""
    step = max(1, _CHUNK // width)
    for first in range(start, stop, step):
        yield first, min(first + step, stop)


def _psi2_sum(first: int, last: int, argument) -> float:
    """sum_{a=first}^{last} psi_2(argument(a)), with a passed to argument as
    int64 arrays of one block each."""
    import numpy as np
    with np.errstate(over="ignore"):  # an argument past float64 is inf: psi_2(inf) = 0
        return math.fsum(
            float(np.sum(polygamma(2, argument(np.arange(lo, hi, dtype=np.int64)))))
            for lo, hi in _blocks(first, last + 1))


def verify_two_variable_identity(ell: int, X1: float, X2: float, m: int,
                                 tail_cutoff: int | None = None) -> float:
    """Finite-m value of the two-variable lattice identity for (x1^ell).

    Evaluates 1 - (-m X1 / X2^2) * sum_{a1 >= m*ell} psi_2((m + a1 X1 + X2)/X2)
    with the sum truncated at tail_cutoff and the rest past it estimated to
    two orders (see _tail). Approaches ell*X1 / (1 + ell*X1) as m grows.
    """
    ell, m = _integers((ell, m), "ell and m")
    if ell < 1 or m < 1:
        raise InvalidInput("ell and m must be positive integers")
    start = m * ell
    X1, X2, scale, cutoff, rest = _tail("two-variable", start, start, m, X1, X2, tail_cutoff)
    total = _psi2_sum(start, cutoff, lambda a1: (m + a1 * X1 + X2) / X2) + rest
    return 1.0 + scale * total


def verify_diagonal_identity(ell1: int, ell2: int, X1: float, X2: float, m: int,
                             tail_cutoff: int | None = None) -> float:
    """Finite-m value of the two-variable lattice identity for (x1^l1, x2^l2).

    1 + (m X1 / X2^2) * ( sum_{a1=1}^{m*l1 - 1} psi_2(m*l2 - floor(a1 l2 / l1)
                                                 + (m + a1 X1)/X2)
                          + sum_{a1 >= m*l1} psi_2((m + a1 X1 + X2)/X2) ),
    the staircase sum written verbatim, floor convention included; the second
    sum is the two-variable identity's tail at l = l1, cut and estimated as
    there. Approaches l1 l2 X1 X2 / ((1 + l1 X1)(1 + l2 X2)).
    """
    import numpy as np
    ell1, ell2, m = _integers((ell1, ell2, m), "ell1, ell2 and m")
    if ell1 < 1 or ell2 < 1 or m < 1:
        raise InvalidInput("ell1, ell2, m must be positive integers")
    start = m * ell1
    X1, X2, scale, cutoff, rest = _tail("diagonal", 1, start, m, X1, X2, tail_cutoff)
    largest = max(m, start - 1) * ell2  # the staircase runs in int64
    if largest > _INT64_MAX:
        raise EstimateTooLarge(
            f"diagonal identity staircase needs integers of {largest.bit_length()} "
            f"bits, beyond the int64 limit {_INT64_MAX}; lower l2 or m")
    first = _psi2_sum(1, start - 1, lambda a1: (
        (m * ell2 - (a1 * ell2) // ell1).astype(np.float64) + (m + a1 * X1) / X2))
    second = _psi2_sum(start, cutoff, lambda a1: (m + a1 * X1 + X2) / X2) + rest
    return 1.0 + scale * (first + second)
