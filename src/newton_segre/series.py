"""Multivariate power series with integer coefficients, truncated by total degree.

Terms of total degree above the bound are dropped by every operation, so the
ring is Z[X_1..X_n] / (total degree > D). Every series the Segre class
builds has integer coefficients (its vertices are generators and its
jacobians integer determinants), so coefficients are plain ints and anything
else is refused with InvalidInput. Coefficients, scalars, nvars, degree_bound
and top_degree are read by ideals._integers, and so are all exponents of a
series in one call: each is a tuple of nvars non-negative ints. _quotient
is the package's one division recurrence: on checked int coefficient dicts,
by a divisor whose constant term is a unit of Z, 1 or -1, it solves for the
quotient one total degree at a time. Division of series and inverse() (which
is 1 / self) type its result; the Segre class calls it on plain dicts,
without the class. The series product and inverse() stay for other callers
and for the benchmark's per-layer counters, which name them.
"""

from __future__ import annotations

from itertools import chain
from operator import add
from typing import Mapping, Sequence

from .errors import InvalidInput
from .ideals import _integers

Exponent = tuple[int, ...]


def _quotient(num: Mapping[Exponent, int], den: Mapping[Exponent, int],
              degree_bound: int) -> dict[Exponent, int]:
    """The quotient q with q * den == num below total degree degree_bound, on
    int coefficient dicts over checked exponent tuples; terms of num above
    the bound are dropped. den's constant term c0 must be 1 or -1. Splitting
    every series by total degree, q_d = c0 * (num_d - sum_{k>=1} den_k *
    q_(d-k)), since c0 is its own inverse."""
    c0 = sum(c for e, c in den.items() if not any(e))
    if c0 not in (1, -1):
        raise InvalidInput(
            f"series with constant term {c0} is not a unit over the integers")
    rest = [(e, sum(e), c) for e, c in den.items() if any(e)]
    parts: list[dict[Exponent, int]] = [{} for _ in range(degree_bound + 1)]
    for exp, c in num.items():
        if sum(exp) <= degree_bound:
            parts[sum(exp)][exp] = c
    for d, part in enumerate(parts):
        for e1, k, c1 in rest:
            if k <= d:
                for e2, c2 in parts[d - k].items():
                    exp = tuple(map(add, e1, e2))
                    part[exp] = part.get(exp, 0) - c1 * c2
        parts[d] = {e: c0 * c for e, c in part.items() if c}
    return {e: c for part in parts for e, c in part.items()}


class TruncatedSeries:
    __slots__ = ("nvars", "degree_bound", "coeffs")

    def __init__(self, nvars: int, degree_bound: int,
                 coeffs: Mapping[Exponent, int] | None = None):
        nvars, degree_bound = _integers((nvars, degree_bound), "nvars and degree_bound")
        if nvars < 1:
            raise InvalidInput("need at least one variable")
        if degree_bound < 0:
            raise InvalidInput("degree bound must be non-negative")
        self.nvars = nvars
        self.degree_bound = degree_bound
        coeffs = coeffs or {}
        if not all(isinstance(exp, tuple) and len(exp) == nvars for exp in coeffs):
            raise InvalidInput(f"series exponents must be tuples of {nvars} integers")
        flat = _integers(chain.from_iterable(coeffs), "series exponents")
        if min(flat, default=0) < 0:
            raise InvalidInput(f"series exponents must be non-negative, got {list(coeffs)}")
        exps = zip(*[iter(flat)] * nvars)  # flat cut back into nvars-tuples
        values = _integers(coeffs.values(), "series coefficients")
        self.coeffs = {e: c for e, c in zip(exps, values) if c != 0 and sum(e) <= degree_bound}

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, degree_bound: int) -> "TruncatedSeries":
        return cls(nvars, degree_bound)

    @classmethod
    def constant(cls, nvars: int, degree_bound: int, value: int) -> "TruncatedSeries":
        return cls(nvars, degree_bound, {(0,) * nvars: value})

    # ---- ring operations ----------------------------------------------

    def _compatible(self, other: "TruncatedSeries") -> None:
        if self.nvars != other.nvars or self.degree_bound != other.degree_bound:
            raise InvalidInput("series have different variable counts or bounds")

    def __add__(self, other: "TruncatedSeries | int") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.nvars, self.degree_bound, other)
        self._compatible(other)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, 0) + c
        return TruncatedSeries(self.nvars, self.degree_bound, out)

    __radd__ = __add__

    def __mul__(self, other: "TruncatedSeries | int") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            (f,) = _integers((other,), "series coefficients")
            return TruncatedSeries(self.nvars, self.degree_bound,
                                   {e: c * f for e, c in self.coeffs.items()})
        self._compatible(other)
        out: dict[Exponent, int] = {}
        for e1, c1 in self.coeffs.items():
            room = self.degree_bound - sum(e1)
            for e2, c2 in other.coeffs.items():
                if sum(e2) <= room:
                    exp = tuple(map(add, e1, e2))
                    out[exp] = out.get(exp, 0) + c1 * c2
        return TruncatedSeries(self.nvars, self.degree_bound, out)

    __rmul__ = __mul__

    def __truediv__(self, other: "TruncatedSeries | int") -> "TruncatedSeries":
        """The quotient q with q * other == self; other's constant term must be
        1 or -1 (see _quotient)."""
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.nvars, self.degree_bound, other)
        self._compatible(other)
        return TruncatedSeries(self.nvars, self.degree_bound,
                               _quotient(self.coeffs, other.coeffs, self.degree_bound))

    def inverse(self) -> "TruncatedSeries":
        """1 / self; the constant term must be 1 or -1."""
        return TruncatedSeries.constant(self.nvars, self.degree_bound, 1) / self

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TruncatedSeries)
                and self.nvars == other.nvars
                and self.degree_bound == other.degree_bound
                and self.coeffs == other.coeffs)

    __hash__ = None  # type: ignore[assignment]

    # ---- views ---------------------------------------------------------

    def coefficient(self, exponent: Sequence[int]) -> int:
        return self.coeffs.get(tuple(exponent), 0)

    def pushforward(self, top_degree: int) -> tuple[int, ...]:
        """Coefficients of H^1 .. H^top_degree after substituting X_i -> H."""
        (top_degree,) = _integers((top_degree,), "top_degree")
        parts = [0] * (top_degree + 1)
        for exp, c in self.coeffs.items():
            d = sum(exp)
            if d <= top_degree:
                parts[d] += c
        return tuple(parts[1:])

    def terms(self) -> list[tuple[Exponent, int]]:
        """Deterministic term order: by total degree, then lexicographic."""
        return sorted(self.coeffs.items(), key=lambda t: (sum(t[0]), t[0]))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for exp, c in self.terms():
            mono = "*".join(
                f"X{i + 1}" if e == 1 else f"X{i + 1}^{e}"
                for i, e in enumerate(exp) if e
            )
            bits.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(bits)
