"""Monomial ideals as sets of exponent vectors.

A monomial ideal in n variables is stored by its minimal generators: a
nonempty set of integer exponent vectors, none of which dominates another
componentwise, and never the zero vector (the ideal must be proper).
Exponent vectors are plain tuples of non-negative ints; an n above
MAX_VARIABLES is refused before any of them is built.

The package's two readers of caller input live here: _integers for every
count, order, axis, exponent and coefficient (integer types only), and
_rationals for every point (a Rational exactly, a finite float as the
rational it stores). Both refuse anything else with InvalidInput.

Text is read by one token regex over the string as passed: factors x<i> and
x<i>^<e> (whitespace around x and ^, never inside a number), '*', ',' and
any other character, a ParseError at its own index in that string.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational, Real
from operator import index
from typing import Iterable, Sequence

from .errors import DimensionMismatch, InvalidInput, ParseError, ZeroGenerator

ExponentVector = tuple[int, ...]
StretchFactors = tuple[int, ...]

# Most variables an ideal may have. The Newton polyhedron homogenizes into an
# (n + k) x (n + 1) matrix and its facet search grows about as n^3: `lct x1
# --n 128` takes 0.48 s and `--n 200` 2.1 s on a 2-vCPU Xeon, while `--n
# 100000` runs out of memory.
MAX_VARIABLES = 128


@dataclass(frozen=True)
class MonomialIdeal:
    n: int
    generators: tuple[ExponentVector, ...]

    def __str__(self) -> str:
        return "(" + ", ".join(monomial_str(g) for g in self.generators) + ")"


def monomial_str(exponents: Sequence[int]) -> str:
    factors = [f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exponents) if e > 0]
    return "*".join(factors) or "1"


def _dominates(a: ExponentVector, b: ExponentVector) -> bool:
    """True when a >= b componentwise."""
    return all(x >= y for x, y in zip(a, b))


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """values as a tuple of ints; InvalidInput for a bool or any value that
    is not an integer type (a float or a string is refused, not truncated)."""
    try:
        values = list(values)
        if bool not in map(type, values):
            return tuple(map(index, values))
    except TypeError:
        pass
    raise InvalidInput(f"{what} must be integers, got {values!r}")


def _rationals(values: Iterable, what: str) -> tuple[list[Fraction], bool]:
    """values as exact rationals, and whether one of them was inexact: a
    Rational is read exactly, any other finite Real (a float, a numpy float)
    as the rational its float64 value stores; InvalidInput for anything
    else, a string or a nan included."""
    try:
        values, inexact = list(values), False
    except TypeError:
        raise InvalidInput(f"{what} must be finite real numbers: {values!r}") from None
    for x in values:
        if not isinstance(x, Rational):
            if not (isinstance(x, Real) and math.isfinite(x)):
                raise InvalidInput(f"{what} must be finite real numbers: {values!r}")
            inexact = True
    return [Fraction(x if isinstance(x, Rational) else float(x)) for x in values], inexact


def make_ideal(n: int, raw_generators: Iterable[Sequence[int]]) -> MonomialIdeal:
    """Build a proper monomial ideal, dropping dominated generators.

    Raises ZeroGenerator when the zero vector appears (the ideal would be the
    unit ideal) and DimensionMismatch on bad vector lengths, or on an n
    outside 1..MAX_VARIABLES before the first generator is read; n and the
    exponents are read by _integers.
    """
    (n,) = _integers((n,), "n")
    if not 1 <= n <= MAX_VARIABLES:
        raise DimensionMismatch(f"an ideal has 1 to {MAX_VARIABLES} variables, got n={n}")
    gens: set[ExponentVector] = set()
    for raw in raw_generators:
        vec = _integers(raw, "generator exponents")
        if len(vec) != n:
            raise DimensionMismatch(f"generator {vec} has length {len(vec)}, expected {n}")
        if any(e < 0 for e in vec):
            raise InvalidInput(f"negative exponent in generator {vec}")
        if not any(vec):
            raise ZeroGenerator("the zero exponent vector generates the unit ideal")
        gens.add(vec)
    if not gens:
        raise InvalidInput("a monomial ideal needs at least one generator")
    minimal = sorted(g for g in gens if not any(h != g and _dominates(g, h) for h in gens))
    return MonomialIdeal(n, tuple(minimal))


def stretch(ideal: MonomialIdeal, factors: Sequence[int]) -> MonomialIdeal:
    """Extension of the ideal under x_i -> x_i**r_i: exponents scale by r_i."""
    r = _integers(factors, "stretch factors")
    if len(r) != ideal.n:
        raise DimensionMismatch(f"stretch factors {r} have length {len(r)}, expected {ideal.n}")
    if any(f < 1 for f in r):
        raise InvalidInput("stretch factors must be positive integers")
    return make_ideal(ideal.n, [tuple(ri * e for ri, e in zip(r, g)) for g in ideal.generators])


# One token of ideal text: whitespace, a factor (digits missing after x or ^
# are an error where they should be) or any other single character.
_TOKEN = re.compile(r"(?P<space>\s+)|(?P<factor>x\s*(\d*)(?:\s*\^\s*(\d*))?)|.", re.DOTALL)


def _read_generators(text: str) -> list[dict[int, int]]:
    """The generators of ideal text, each as {variable index from 0: exponent}."""
    gens, last = [{}], ","
    for tok in _TOKEN.finditer(text):
        char, at = tok.group(), tok.start()
        if tok.lastgroup == "factor":
            var, power = tok.group(3, 4)
            if not var or power == "":
                raise ParseError("expected a number", tok.end(4 if var else 3))
            try:
                i, e = int(var), int(power or 1)
            except ValueError:  # above the interpreter's int-from-str digit limit
                raise ParseError(f"more than {sys.get_int_max_str_digits()} digits", at) from None
            if i < 1:
                raise ParseError("variable indices start at x1", at)
            gens[-1][i - 1] = gens[-1].get(i - 1, 0) + e
        elif tok.lastgroup == "space":
            continue
        elif char not in ("*", ",") or last in ("*", ","):
            raise ParseError(f"expected a factor like x1 or x2^3, found {char!r}", at)
        elif char == ",":
            gens.append({})
        last = char
    if last in ("*", ","):
        raise ParseError("expected a factor like x1 or x2^3 at the end", len(text))
    return gens


def parse_ideal(source: str | dict, n: int | None = None) -> MonomialIdeal:
    """Parse an ideal from text like "x1^2, x1*x2" or from the JSON form.

    The JSON form is {"n": 2, "generators": [[2, 0], [1, 1]]}. For text, the
    variable count is the highest index mentioned unless n is given. A
    ParseError's position is an index into source as passed.
    """
    if n is not None:
        (n,) = _integers((n,), "n")
    if isinstance(source, dict):
        return _ideal_from_json(source, n)
    if source.lstrip().startswith("{"):
        try:
            payload = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", exc.pos) from exc
        return _ideal_from_json(payload, n)
    gens = _read_generators(source)
    widest = max(map(max, gens)) + 1
    if n is not None and widest > n:
        raise DimensionMismatch(f"variable x{widest} out of range for n={n}")
    width = widest if n is None else n
    # lazily, so that make_ideal refuses the width before any tuple is built
    return make_ideal(width, (tuple(g.get(i, 0) for i in range(width)) for g in gens))


def _ideal_from_json(payload: dict, n: int | None) -> MonomialIdeal:
    if "generators" not in payload:
        raise ParseError("JSON ideal needs a 'generators' key", 0)
    width = n
    if "n" in payload:  # read whatever it holds; make_ideal refuses a bad width
        (width,) = _integers((payload["n"],), "JSON 'n'")
    gens = payload["generators"]
    if not isinstance(gens, list):
        raise InvalidInput(f"JSON 'generators' must be a list, got {gens!r}")
    if width is None:
        if not gens or not gens[0]:
            raise ParseError("cannot infer n from empty generators", 0)
        if not isinstance(gens[0], list):
            raise InvalidInput(f"generator {gens[0]!r} is not a list of integer exponents")
        width = len(gens[0])
    if n is not None and width != n:
        raise DimensionMismatch(f"JSON says n={width} but n={n} was requested")
    return make_ideal(width, gens)


def serialize_ideal(ideal: MonomialIdeal) -> dict:
    """JSON-ready form; parse_ideal(serialize_ideal(I)) == I."""
    return {"n": ideal.n, "generators": [list(g) for g in ideal.generators]}
