"""Multivariate power series with integer coefficients, truncated by total degree.

Terms of total degree above the bound are dropped by every operation, so the
ring is Z[X_1..X_n] / (total degree > D). Every series the Segre class
builds has integer coefficients (its vertices are generators and its
jacobians integer determinants), so coefficients are plain ints and anything
else is refused with InvalidInput. A product visits only the pairs of terms
whose degrees fit under the bound. Inversion is geometric expansion and is
defined for series whose constant term is a unit of Z, 1 or -1; in this
package only factors (1 + v.X) are ever inverted.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import add, index
from typing import Mapping, Sequence

from .errors import InvalidInput

Exponent = tuple[int, ...]


def _integer(c) -> int:
    """c as an int; InvalidInput unless it is an integer type."""
    try:
        return index(c)
    except TypeError:
        raise InvalidInput(f"series coefficients are integers, got {c!r}") from None


class TruncatedSeries:
    __slots__ = ("nvars", "degree_bound", "coeffs")

    def __init__(self, nvars: int, degree_bound: int,
                 coeffs: Mapping[Exponent, int] | None = None):
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
                c = _integer(c)
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

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.nvars, self.degree_bound,
                               {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "TruncatedSeries | int") -> "TruncatedSeries":
        return self + (-other if isinstance(other, TruncatedSeries) else -_integer(other))

    def __mul__(self, other: "TruncatedSeries | int") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            f = _integer(other)
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

    def inverse(self) -> "TruncatedSeries":
        """Geometric-series inverse; the constant term must be 1 or -1."""
        c0 = self.coeffs.get((0,) * self.nvars, 0)
        if c0 not in (1, -1):
            raise InvalidInput(
                f"series with constant term {c0} has no inverse over the integers")
        # a unit is its own inverse, so self = c0 * (1 + u)
        u = (self * c0) - 1  # strictly positive valuation
        result = TruncatedSeries.constant(self.nvars, self.degree_bound, 1)
        power = TruncatedSeries.constant(self.nvars, self.degree_bound, 1)
        sign = 1
        for _ in range(self.degree_bound):
            power = power * u
            sign = -sign
            if not power.coeffs:
                break
            result = result + power * sign
        return result * c0

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
