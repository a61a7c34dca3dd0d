"""Multivariate power series with integer coefficients, truncated by total degree.

Terms of total degree above the bound are dropped by every operation, so the
ring is Z[X_1..X_n] / (total degree > D). Every series the Segre class
builds has integer coefficients (its vertices are generators and its
jacobians integer determinants), so coefficients are plain ints and anything
else is refused with InvalidInput. Coefficients, scalars, nvars, degree_bound
and top_degree are read by ideals._integers, and so are all exponents of a
series in one call: each is a tuple of nvars non-negative ints.

Division runs on a GradedIndex: the exponents up to the degree bound in
graded order, each coded as one int, with predecessor tables. A series is
then a dense list of int coefficients, one per exponent, and the terms up
to any degree are a prefix of it. _quotient is the package's one division
recurrence: on such lists, by a divisor whose constant term is a unit of
Z, 1 or -1, it solves for the quotient one term at a time in graded
order. Division of series and inverse() (which is 1 / self) type its
result; the Segre class calls it on one index per class, without the
class. The series product and inverse() stay for other callers and for the
benchmark's per-layer counters, which name them.
"""

from __future__ import annotations

from itertools import chain
from operator import add
from typing import Mapping, Sequence

from .errors import InvalidInput
from .ideals import _integers

Exponent = tuple[int, ...]


class GradedIndex:
    """The exponents of nvars variables up to total degree degree_bound, in
    graded order, for dense int coefficient lists.

    Exponent e is coded as the int sum_i e_i B^i with B = 2 degree_bound +
    2. codes[t] is the code of term t, and position maps a code back to t;
    degree d holds the terms offsets[d] to offsets[d + 1] - 1, so the terms
    up to degree d are the prefix up to offsets[d + 1]. pred[a][t] is the
    position of e_t - a for the code a, and -1 when a does not divide e_t
    (predecessors). The difference of two codes in the index has digit sum
    d - k >= -D (D the degree bound) plus B - 1 = 2D + 1 per borrow, so one
    that borrows sums above D: a code difference is in position only when
    the exponents subtract. The nvars and degree_bound are trusted: callers
    read them first.
    """

    __slots__ = ("nvars", "degree_bound", "base", "units", "codes", "offsets",
                 "position", "pred")

    def __init__(self, nvars: int, degree_bound: int):
        self.nvars, self.degree_bound = nvars, degree_bound
        self.base = 2 * degree_bound + 2
        self.units = [self.base ** i for i in range(nvars)]
        self.codes, self.offsets, level = [0], [0, 1], [0]
        for _ in range(degree_bound):
            level = sorted({c + u for c in level for u in self.units})
            self.codes += level
            self.offsets.append(len(self.codes))
        self.position = {c: t for t, c in enumerate(self.codes)}
        self.pred: dict[int, list[int]] = {}

    def predecessors(self, code: int) -> list[int]:
        """For every term t, the position of e_t - a for the exponent a of
        code, or -1 where a does not divide e_t; built on first use and
        kept in pred for the life of the index."""
        table = self.pred.get(code)
        if table is None:
            table = self.pred[code] = [self.position.get(c - code, -1) for c in self.codes]
        return table

    def code(self, exponent: Sequence[int]) -> int:
        return sum(e * u for e, u in zip(exponent, self.units))

    def dense(self, coeffs: Mapping[Exponent, int]) -> list[int]:
        """The coefficient list of a dict over checked exponents; terms above
        degree_bound are dropped."""
        out = [0] * len(self.codes)
        for exp, c in coeffs.items():
            if sum(exp) <= self.degree_bound:
                out[self.position[self.code(exp)]] = c
        return out

    def sparse(self, dense: Sequence[int]) -> dict[Exponent, int]:
        """The nonzero coefficients of a coefficient list, by exponent."""
        base = self.base
        return {tuple(code // u % base for u in self.units): c
                for code, c in zip(self.codes, dense) if c}


def _quotient(num: Sequence[int], den: Mapping[int, int], index: GradedIndex) -> list[int]:
    """The quotient q with q * den == num on the terms of num, a dense list
    over a prefix of index that ends at a degree boundary; den is a dict
    from codes of exponents of degree at most index.degree_bound to ints,
    and its constant term c0 must be 1 or -1.

    In graded order every term of den but c0 takes a term of q to a later
    one, so q_t = c0 * (num_t - sum_a den_a * q_(t - a)) solves for q one
    term at a time, reading each q_(t - a) through the predecessor table
    of a; a missing predecessor (-1) reads the zero kept in the slot past
    the prefix. c0 is its own inverse.
    """
    c0 = den.get(0, 0)
    if c0 not in (1, -1):
        raise InvalidInput(
            f"series with constant term {c0} is not a unit over the integers")
    steps = [(index.predecessors(code), c) for code, c in den.items() if code and c]
    q = [*num, 0]
    for t in range(len(num)):
        acc = q[t]
        for table, c in steps:
            acc -= c * q[table[t]]
        q[t] = c0 * acc
    q.pop()
    return q


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
        index = GradedIndex(self.nvars, self.degree_bound)
        den = {index.code(e): c for e, c in other.coeffs.items()}
        return TruncatedSeries(self.nvars, self.degree_bound,
                               index.sparse(_quotient(index.dense(self.coeffs), den, index)))

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
