"""Multivariate power series over exact rationals, truncated by total degree.

Terms of total degree above the bound are dropped by every operation, so the
ring is really Q[X_1..X_n] / (total degree > D). Integral coefficients are
stored as int and the others as Fraction, so series with integer
coefficients (every series the Segre class builds) multiply in plain int
arithmetic. A product visits only the pairs of terms whose degrees fit
under the bound. Inversion is geometric expansion and is only defined for
series with nonzero constant term; in this package only factors (1 + v.X)
are ever inverted.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from operator import add
from typing import Mapping, Sequence

Exponent = tuple[int, ...]
Coefficient = Fraction | int


def _exact(c) -> Coefficient:
    """c as an int when it is integral, else as a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class TruncatedSeries:
    __slots__ = ("nvars", "degree_bound", "coeffs")

    def __init__(self, nvars: int, degree_bound: int,
                 coeffs: Mapping[Exponent, Coefficient] | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if degree_bound < 0:
            raise ValueError("degree bound must be non-negative")
        self.nvars = nvars
        self.degree_bound = degree_bound
        cleaned: dict[Exponent, Coefficient] = {}
        for exp, c in (coeffs or {}).items():
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} has wrong arity")
            c = _exact(c)
            if c != 0 and sum(exp) <= degree_bound:
                cleaned[exp] = c
        self.coeffs = cleaned

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int, degree_bound: int) -> "TruncatedSeries":
        return cls(nvars, degree_bound)

    @classmethod
    def constant(cls, nvars: int, degree_bound: int, value: Coefficient) -> "TruncatedSeries":
        return cls(nvars, degree_bound, {(0,) * nvars: value})

    @classmethod
    def monomial(cls, nvars: int, degree_bound: int, exponent: Sequence[int],
                 coeff: Coefficient = 1) -> "TruncatedSeries":
        return cls(nvars, degree_bound, {tuple(exponent): coeff})

    @classmethod
    def one_plus_linear(cls, nvars: int, degree_bound: int,
                        v: Sequence[Fraction | int]) -> "TruncatedSeries":
        """1 + v_1 X_1 + ... + v_n X_n."""
        coeffs: dict[Exponent, Coefficient] = {(0,) * nvars: 1}
        for i, vi in enumerate(v):
            if vi:
                exp = [0] * nvars
                exp[i] = 1
                coeffs[tuple(exp)] = vi
        return cls(nvars, degree_bound, coeffs)

    # ---- ring operations ----------------------------------------------

    def _compatible(self, other: "TruncatedSeries") -> None:
        if self.nvars != other.nvars or self.degree_bound != other.degree_bound:
            raise ValueError("series have different variable counts or bounds")

    def __add__(self, other: "TruncatedSeries | Fraction | int") -> "TruncatedSeries":
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

    def __sub__(self, other: "TruncatedSeries | Fraction | int") -> "TruncatedSeries":
        return self + (-other if isinstance(other, TruncatedSeries) else -_exact(other))

    def __mul__(self, other: "TruncatedSeries | Fraction | int") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            f = _exact(other)
            return TruncatedSeries(self.nvars, self.degree_bound,
                                   {e: c * f for e, c in self.coeffs.items()})
        self._compatible(other)
        bound = self.degree_bound
        ordered = sorted(other.coeffs.items(), key=lambda t: sum(t[0]))
        degrees = [sum(e) for e, _ in ordered]
        out: dict[Exponent, Coefficient] = {}
        get = out.get
        for e1, c1 in self.coeffs.items():
            for e2, c2 in ordered[:bisect_right(degrees, bound - sum(e1))]:
                exp = tuple(map(add, e1, e2))
                out[exp] = get(exp, 0) + c1 * c2
        return TruncatedSeries(self.nvars, self.degree_bound, out)

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        """Geometric-series inverse; the constant term must be nonzero."""
        c0 = self.coeffs.get((0,) * self.nvars, 0)
        if c0 == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        inv_c0 = Fraction(1, c0)
        u = (self * inv_c0) - 1  # strictly positive valuation
        result = TruncatedSeries.constant(self.nvars, self.degree_bound, 1)
        power = TruncatedSeries.constant(self.nvars, self.degree_bound, 1)
        sign = 1
        for _ in range(self.degree_bound):
            power = power * u
            sign = -sign
            if not power.coeffs:
                break
            result = result + power * sign
        return result * inv_c0

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TruncatedSeries)
                and self.nvars == other.nvars
                and self.degree_bound == other.degree_bound
                and self.coeffs == other.coeffs)

    __hash__ = None  # type: ignore[assignment]

    # ---- views ---------------------------------------------------------

    def coefficient(self, exponent: Sequence[int]) -> Coefficient:
        return self.coeffs.get(tuple(exponent), 0)

    def total_degree_parts(self) -> dict[int, Coefficient]:
        """Sum of coefficients bucketed by total degree (the X_i -> H map)."""
        parts: dict[int, Coefficient] = {}
        for exp, c in self.coeffs.items():
            d = sum(exp)
            parts[d] = parts.get(d, 0) + c
        return {d: _exact(c) for d, c in parts.items() if c != 0}

    def pushforward(self, top_degree: int) -> tuple[Coefficient, ...]:
        """Coefficients of H^1 .. H^top_degree after substituting X_i -> H."""
        parts = self.total_degree_parts()
        return tuple(parts.get(d, 0) for d in range(1, top_degree + 1))

    def evaluate(self, point: Sequence[Fraction | float]):
        """Plug numbers into the truncated polynomial (approximate for series)."""
        if len(point) != self.nvars:
            raise ValueError("evaluation point has wrong arity")
        total = None
        for exp, c in sorted(self.coeffs.items()):
            value = c
            for x, e in zip(point, exp):
                for _ in range(e):
                    value = value * x
            total = value if total is None else total + value
        if total is None:
            return Fraction(0) if all(isinstance(x, Fraction) for x in point) else 0.0
        return total

    def terms(self) -> list[tuple[Exponent, Coefficient]]:
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
