"""Polygamma kernels and the closed-form identity checks built on them.

The r-th polygamma function is computed from its defining series through the
standard two-step scheme: shift the argument up by the exact recurrence

    psi_r(x) = psi_r(x + 1) + (-1)^r * r! / x^(r+1)

until it clears a fixed threshold, then evaluate the large-argument
asymptotic expansion (DLMF 25.11.43)

    psi_r(x) ~ (-1)^(r+1) r! ( x^-r / r + x^-(r+1) / 2
               + sum_k B_2k / (2k)! * Gamma(r+2k)/Gamma(r+1) * x^(-r-2k) )

truncated at its smallest term, the usual optimal rule for divergent
asymptotic series. Bernoulli numbers come exactly from the integer tangent
numbers.

The verify_* functions evaluate, at finite refinement m, the lattice-sum
identities whose limits are the closed forms l X / (1 + l X) and
l1 l2 X1 X2 / ((1 + l1 X1)(1 + l2 X2)); callers compare the returned values
against those targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

# numpy is imported inside the functions that use it, so the exact-geometry
# commands (lct, segre, diagram) never load it (about 14 MiB and tens of ms).

from .errors import CutoffTooSmall, InvalidInput, NonPositiveArgument, PrecisionUnreachable

SHIFT_THRESHOLD = 20.0
_MAX_BERNOULLI = 60


@dataclass(frozen=True)
class BernoulliTable:
    """Even-index Bernoulli numbers B_2, B_4, ..., B_2K as exact rationals."""

    even_values: tuple[Fraction, ...]

    def b2k(self, k: int) -> Fraction:
        if k < 1 or k > len(self.even_values):
            raise IndexError(f"B_{2 * k} not tabulated")
        return self.even_values[k - 1]

    def __len__(self) -> int:
        return len(self.even_values)


@lru_cache(maxsize=8)
def bernoulli(K: int) -> BernoulliTable:
    """Exact table of B_2..B_2K from the tangent numbers T_k.

    The T_k come from an integer-only recurrence (Brent and Harvey, "Fast
    computation of Bernoulli, tangent and secant numbers", 2011), and
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).
    """
    if K < 1:
        raise ValueError("need at least one Bernoulli number")
    tangent = [0, 1] + [0] * (K - 1)
    for k in range(2, K + 1):
        tangent[k] = (k - 1) * tangent[k - 1]
    for k in range(2, K + 1):
        for j in range(k, K + 1):
            tangent[j] = (j - k) * tangent[j - 1] + (j - k + 2) * tangent[j]
    return BernoulliTable(tuple(
        Fraction((-1) ** (k - 1) * 2 * k * tangent[k], 4 ** k * (4 ** k - 1))
        for k in range(1, K + 1)))


def _asymptotic(r: int, x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Truncated-at-smallest-term asymptotic value for x >= SHIFT_THRESHOLD.

    Works elementwise; each element stops accumulating once its terms stop
    shrinking. Returns (value, floor): floor is the size of the last term
    taken, the intrinsic accuracy limit of the divergent expansion.
    """
    import numpy as np
    sign = (-1.0) ** (r + 1)
    rfact = float(math.factorial(r))
    value = sign * rfact / r * x ** (-r)
    comp = np.zeros_like(x)  # Kahan carry

    def accumulate(term: np.ndarray, mask: np.ndarray) -> None:
        nonlocal value, comp
        y = np.where(mask, term, 0.0) - comp
        t = value + y
        comp = (t - value) - y
        value = t

    head = sign * rfact / 2.0 * x ** (-r - 1)
    accumulate(head, np.ones_like(x, dtype=bool))
    table = bernoulli(_MAX_BERNOULLI)
    prev = np.abs(head)
    active = np.ones_like(x, dtype=bool)
    floor = prev.copy()
    for k in range(1, _MAX_BERNOULLI + 1):
        # r! * B_2k / (2k)! * Gamma(r+2k)/Gamma(r+1) = B_2k * (r+2k-1)! / (2k)!
        coeff = float(table.b2k(k) * Fraction(math.factorial(r + 2 * k - 1),
                                              math.factorial(2 * k)))
        term = sign * coeff * x ** (-r - 2 * k)
        mag = np.abs(term)
        # an element is done once its terms no longer move the float64 sum
        converged = active & (mag < np.spacing(np.abs(value)))
        floor = np.where(converged, mag, floor)
        shrinking = active & ~converged & (mag < prev)
        accumulate(term, shrinking)
        floor = np.where(shrinking, mag, floor)
        active = shrinking
        prev = np.where(shrinking, mag, prev)
        if not np.any(active):
            break
    return value, floor


def polygamma(r: int, x, eps: float = 1e-12):
    """psi_r at positive real x (scalar or array) to absolute accuracy eps.

    Raises NonPositiveArgument off the domain and PrecisionUnreachable when
    eps undercuts the floor of the asymptotic expansion at the shift
    threshold (for float64 targets this effectively never happens).
    """
    import numpy as np
    if r < 1:
        raise ValueError("polygamma order must be >= 1")
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(np.float64)
    if np.any(arr <= 0):
        raise NonPositiveArgument("polygamma implemented for positive arguments only")

    shifted = arr.copy()
    correction = np.zeros_like(arr)
    comp = np.zeros_like(arr)  # Kahan carry for the shift sum
    rsign = (-1.0) ** (r + 1)  # psi_r(x) - psi_r(x+1) = (-1)^(r+1) r! / x^(r+1)
    rfact = float(math.factorial(r))
    while True:
        low = shifted < SHIFT_THRESHOLD
        if not np.any(low):
            break
        term = rsign * rfact / shifted[low] ** (r + 1)
        y = term - comp[low]
        t = correction[low] + y
        comp[low] = (t - correction[low]) - y
        correction[low] = t
        shifted[low] += 1.0

    value, floor = _asymptotic(r, shifted, eps)
    if np.any(floor > eps):
        raise PrecisionUnreachable(
            f"asymptotic floor {float(np.max(floor)):.3e} above requested eps {eps:.3e}")
    result = value + correction
    return float(result[0]) if scalar else result


def polygamma_extended(r: int, x: float, eps: float = 1e-16) -> float:
    """Guard path: the same scheme evaluated in numpy extended precision."""
    import numpy as np
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
    sign = ld((-1.0) ** (r + 1))
    value = sign * rfact * (shifted ** (-r) / r + shifted ** (-r - 1) / 2)
    table = bernoulli(_MAX_BERNOULLI)
    prev = abs(rfact * shifted ** (-r - 1) / 2)
    for k in range(1, _MAX_BERNOULLI + 1):
        frac = table.b2k(k) * Fraction(math.factorial(r + 2 * k - 1),
                                       math.factorial(2 * k))
        term = sign * (ld(frac.numerator) / ld(frac.denominator)) \
            * shifted ** ld(-r - 2 * k)
        if abs(term) >= prev:
            break
        value += term
        prev = abs(term)
        if abs(term) < ld(eps) * ld(1e-3):
            break
    return float(value + correction)


def sum_inverse_cubes(lo: int, hi: int, y: float) -> float:
    """sum_{a=lo}^{hi} 1/(a + y)^3 through polygamma differences."""
    if hi < lo:
        return 0.0
    return (-polygamma(2, lo + y) + polygamma(2, hi + 1 + y)) / 2.0


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def verify_power_identity(ell: int, X: float, m: int) -> float:
    """(m / X) * psi_1(m*ell + m/X); approaches 1 / (1 + ell*X) as m grows."""
    if ell < 1 or m < 1:
        raise InvalidInput("ell and m must be positive integers")
    if X <= 0:
        raise NonPositiveArgument("X must be positive")
    X = float(X)
    return (m / X) * polygamma(1, m * ell + m / X)


def _psi2_tail(first_excluded: float, X1: float, X2: float, shift: float) -> float:
    """Estimate of sum_{a1 >= first_excluded} psi_2((shift + a1 X1) / X2).

    Uses the heuristic psi_2(y) ~ -y^-2 and an integral comparison.
    """
    return -(X2 ** 2 / X1) / (shift + first_excluded * X1)


def _tail_rule_cutoff(start: int, X1: float, X2: float, shift: float,
                      m: int, tolerance: float) -> int:
    """Smallest cutoff with estimated tail below tolerance/10, plus headroom."""
    target = tolerance / 10.0
    needed = ((X2 ** 2 / X1) / target - shift) / X1
    return int(max(start + 20 * m, needed)) + 1


def verify_two_variable_identity(ell: int, X1: float, X2: float, m: int,
                                 tail_cutoff: int | None = None,
                                 tolerance: float = 1e-3) -> float:
    """Finite-m value of the two-variable lattice identity for (x1^ell).

    Evaluates 1 - (-m X1 / X2^2) * sum_{a1 >= m*ell} psi_2((m + a1 X1 + X2)/X2)
    with the sum truncated at tail_cutoff and the remainder estimated from
    psi_2(y) ~ -y^-2. Approaches ell*X1 / (1 + ell*X1) as m grows.
    """
    import numpy as np
    if ell < 1 or m < 1:
        raise InvalidInput("ell and m must be positive integers")
    if X1 <= 0 or X2 <= 0:
        raise NonPositiveArgument("parameters must be positive")
    X1, X2 = float(X1), float(X2)
    start = m * ell
    shift = m + X2
    if tail_cutoff is None:
        tail_cutoff = _tail_rule_cutoff(start, X1, X2, shift, m, tolerance)
    if tail_cutoff < start:
        raise CutoffTooSmall(f"tail_cutoff {tail_cutoff} below the first index {start}")
    tail = _psi2_tail(tail_cutoff + 1, X1, X2, shift)
    if abs(tail) > tolerance / 10.0:
        raise CutoffTooSmall(
            f"estimated tail {abs(tail):.3e} exceeds {tolerance / 10.0:.3e} "
            f"at cutoff {tail_cutoff}")
    a1 = np.arange(start, tail_cutoff + 1, dtype=np.float64)
    total = float(np.sum(polygamma(2, (m + a1 * X1 + X2) / X2))) + tail
    return 1.0 - (-m * X1 / X2 ** 2) * total


def verify_diagonal_identity(ell1: int, ell2: int, X1: float, X2: float, m: int,
                             tail_cutoff: int | None = None,
                             tolerance: float = 1e-3) -> float:
    """Finite-m value of the two-variable lattice identity for (x1^l1, x2^l2).

    1 + (m X1 / X2^2) * ( sum_{a1=1}^{m*l1 - 1} psi_2(m*l2 - floor(a1 l2 / l1)
                                                 + (m + a1 X1)/X2)
                          + sum_{a1 >= m*l1} psi_2(1 + (m + a1 X1)/X2) ),
    the staircase sum written verbatim, floor convention included; the second
    sum is truncated and tail-estimated. Approaches
    l1 l2 X1 X2 / ((1 + l1 X1)(1 + l2 X2)).
    """
    import numpy as np
    if ell1 < 1 or ell2 < 1 or m < 1:
        raise InvalidInput("ell1, ell2, m must be positive integers")
    if X1 <= 0 or X2 <= 0:
        raise NonPositiveArgument("parameters must be positive")
    X1, X2 = float(X1), float(X2)
    start = m * ell1
    shift = X2 + m  # argument of the truncated sum is 1 + (m + a1 X1)/X2
    if tail_cutoff is None:
        tail_cutoff = _tail_rule_cutoff(start, X1, X2, shift, m, tolerance)
    if tail_cutoff < start:
        raise CutoffTooSmall(f"tail_cutoff {tail_cutoff} below the first index {start}")
    tail = _psi2_tail(tail_cutoff + 1, X1, X2, shift)
    if abs(tail) > tolerance / 10.0:
        raise CutoffTooSmall(
            f"estimated tail {abs(tail):.3e} exceeds {tolerance / 10.0:.3e} "
            f"at cutoff {tail_cutoff}")

    a1 = np.arange(1, start, dtype=np.int64)
    staircase = m * ell2 - (a1 * ell2) // ell1
    first = float(np.sum(polygamma(
        2, staircase.astype(np.float64) + (m + a1.astype(np.float64) * X1) / X2)))

    b1 = np.arange(start, tail_cutoff + 1, dtype=np.float64)
    second = float(np.sum(polygamma(2, 1.0 + (m + b1 * X1) / X2))) + tail

    return 1.0 + (m * X1 / X2 ** 2) * (first + second)
