"""Multivariate power series with integer coefficients, truncated by total degree.

Terms of total degree above the bound are dropped by every operation, so the
ring is Z[X_1..X_n] / (total degree > D). Every series the Segre class
builds has integer coefficients (its vertices are generators and its
jacobians integer determinants), so coefficients are plain ints and anything
else is refused with InvalidInput. Coefficients, scalars, nvars, degree_bound
and top_degree are read by ideals._integers; the constructor skips that call
for a plain int, as its loop runs on every term of every Segre division. A
product visits only the pairs of terms whose degrees fit under the bound. Division by a series whose constant term
is a unit of Z, 1 or -1, solves for the quotient one total degree at a time;
inverse() is 1 / self. The Segre class divides by the linear forms (1 + v.X)
directly; the series product and inverse() stay for other callers and for
the benchmark's per-layer counters, which name them.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import add
from typing import Mapping, Sequence

from .errors import InvalidInput
from .ideals import _integers

Exponent = tuple[int, ...]


class TruncatedSeries:
    __slots__ = ("nvars", "degree_bound", "coeffs")

    def __init__(self, nvars: int, degree_bound: int,
                 coeffs: Mapping[Exponent, int] | None = None):
        if type(nvars) is not int or type(degree_bound) is not int:
            nvars, degree_bound = _integers((nvars, degree_bound), "nvars and degree_bound")
        if nvars < 1:
            raise InvalidInput("need at least one variable")
        if degree_bound < 0:
            raise InvalidInput("degree bound must be non-negative")
        self.nvars = nvars
        self.degree_bound = degree_bound
        cleaned: dict[Exponent, int] = {}
        for exp, c in (coeffs or {}).items():
            if len(exp) != nvars:
                raise InvalidInput(f"exponent {exp} has wrong arity")
            if type(c) is not int:
                (c,) = _integers((c,), "series coefficients")
            if c != 0 and sum(exp) <= degree_bound:
                cleaned[exp] = c
        self.coeffs = cleaned

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, degree_bound: int) -> "TruncatedSeries":
        return cls(nvars, degree_bound)

    @classmethod
    def constant(cls, nvars: int, degree_bound: int, value: int) -> "TruncatedSeries":
        return cls(nvars, degree_bound, {(0,) * nvars: value})

    @classmethod
    def monomial(cls, nvars: int, degree_bound: int, exponent: Sequence[int],
                 coeff: int = 1) -> "TruncatedSeries":
        return cls(nvars, degree_bound, {tuple(exponent): coeff})

    @classmethod
    def one_plus_linear(cls, nvars: int, degree_bound: int,
                        v: Sequence[int]) -> "TruncatedSeries":
        """1 + v_1 X_1 + ... + v_n X_n."""
        coeffs: dict[Exponent, int] = {(0,) * nvars: 1}
        for i, vi in enumerate(v):
            if vi:
                exp = [0] * nvars
                exp[i] = 1
                coeffs[tuple(exp)] = vi
        return cls(nvars, degree_bound, coeffs)

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
        bound = self.degree_bound
        ordered = sorted(other.coeffs.items(), key=lambda t: sum(t[0]))
        degrees = [sum(e) for e, _ in ordered]
        out: dict[Exponent, int] = {}
        get = out.get
        for e1, c1 in self.coeffs.items():
            for e2, c2 in ordered[:bisect_right(degrees, bound - sum(e1))]:
                exp = tuple(map(add, e1, e2))
                out[exp] = get(exp, 0) + c1 * c2
        return TruncatedSeries(self.nvars, self.degree_bound, out)

    __rmul__ = __mul__

    def __truediv__(self, other: "TruncatedSeries | int") -> "TruncatedSeries":
        """The quotient q with q * other == self; other's constant term c0
        must be 1 or -1. Splitting every series by total degree,
        q_d = c0 * (self_d - sum_{k>=1} other_k * q_(d-k)), since c0 is its
        own inverse."""
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(self.nvars, self.degree_bound, other)
        self._compatible(other)
        c0 = other.coefficient((0,) * self.nvars)
        if c0 not in (1, -1):
            raise InvalidInput(
                f"series with constant term {c0} is not a unit over the integers")
        rest = [(e, sum(e), c) for e, c in other.coeffs.items() if any(e)]
        parts: list[dict[Exponent, int]] = [{} for _ in range(self.degree_bound + 1)]
        for exp, c in self.coeffs.items():
            parts[sum(exp)][exp] = c
        for d, part in enumerate(parts):
            get = part.get
            for e1, k, c1 in rest:
                if k <= d:
                    for e2, c2 in parts[d - k].items():
                        exp = tuple(map(add, e1, e2))
                        part[exp] = get(exp, 0) - c1 * c2
            parts[d] = {e: c0 * c for e, c in part.items() if c}
        return TruncatedSeries(self.nvars, self.degree_bound,
                               {e: c for part in parts for e, c in part.items()})

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
