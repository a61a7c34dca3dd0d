"""Monomial ideals as sets of exponent vectors.

A monomial ideal in n variables is stored by its minimal generators: a
nonempty set of integer exponent vectors, none of which dominates another
componentwise, and never the zero vector (the ideal must be proper).
Exponent vectors are plain tuples of non-negative ints.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from operator import index
from typing import Iterable, Sequence

from .errors import DimensionMismatch, InvalidInput, ParseError, ZeroGenerator

ExponentVector = tuple[int, ...]
StretchFactors = tuple[int, ...]


@dataclass(frozen=True)
class MonomialIdeal:
    n: int
    generators: tuple[ExponentVector, ...]

    def __str__(self) -> str:
        return "(" + ", ".join(monomial_str(g) for g in self.generators) + ")"


def monomial_str(exponents: Sequence[int]) -> str:
    factors = [
        f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
        for i, e in enumerate(exponents)
        if e > 0
    ]
    return "*".join(factors) if factors else "1"


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


def make_ideal(n: int, raw_generators: Iterable[Sequence[int]]) -> MonomialIdeal:
    """Build a proper monomial ideal, dropping dominated generators.

    Raises ZeroGenerator when the zero vector appears (the ideal would be the
    unit ideal) and DimensionMismatch on bad vector lengths.
    """
    if n < 1:
        raise DimensionMismatch(f"need at least one variable, got n={n}")
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
    minimal = tuple(sorted(
        g for g in gens
        if not any(h != g and _dominates(g, h) for h in gens)
    ))
    return MonomialIdeal(n, minimal)


def stretch(ideal: MonomialIdeal, factors: Sequence[int]) -> MonomialIdeal:
    """Extension of the ideal under x_i -> x_i**r_i: exponents scale by r_i."""
    r = _integers(factors, "stretch factors")
    if len(r) != ideal.n:
        raise DimensionMismatch(f"stretch factors {r} have length {len(r)}, expected {ideal.n}")
    if any(f < 1 for f in r):
        raise InvalidInput("stretch factors must be positive integers")
    return make_ideal(ideal.n, [tuple(ri * e for ri, e in zip(r, g)) for g in ideal.generators])


_FACTOR = re.compile(r"x(\d+)(?:\^(\d+))?")


def _parse_generator(text: str, offset: int, n_hint: int | None) -> dict[int, int]:
    exps: dict[int, int] = {}
    pos = 0
    stripped = text
    expect_factor = True
    while pos < len(stripped):
        ch = stripped[pos]
        if ch == "*":
            if expect_factor:
                raise ParseError("unexpected '*'", offset + pos)
            expect_factor = True
            pos += 1
            continue
        m = _FACTOR.match(stripped, pos)
        if not m:
            raise ParseError(f"expected a factor like x1 or x2^3, found {stripped[pos:]!r}",
                             offset + pos)
        index = int(m.group(1))
        if index < 1:
            raise ParseError("variable indices start at x1", offset + pos)
        power = int(m.group(2)) if m.group(2) else 1
        exps[index - 1] = exps.get(index - 1, 0) + power
        expect_factor = False
        pos = m.end()
    if expect_factor:
        raise ParseError("empty generator", offset)
    if n_hint is not None:
        for idx in exps:
            if idx >= n_hint:
                raise DimensionMismatch(
                    f"variable x{idx + 1} out of range for n={n_hint}")
    return exps


def parse_ideal(source: str | dict, n: int | None = None) -> MonomialIdeal:
    """Parse an ideal from text like "x1^2, x1*x2" or from the JSON form.

    The JSON form is {"n": 2, "generators": [[2, 0], [1, 1]]}. For text, the
    variable count is inferred from the highest index mentioned unless n is
    given explicitly.
    """
    if isinstance(source, dict):
        return _ideal_from_json(source, n)
    text = source.strip()
    if text.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc.msg}", exc.pos) from exc
        return _ideal_from_json(payload, n)

    split = re.search(r"\d(\s+)\d", text)
    if split:  # deleting it would join two numbers: "x1 2" is not x12
        raise ParseError("whitespace between two digits", split.start(1))
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise ParseError("empty input", 0)
    parts = compact.split(",")
    parsed: list[dict[int, int]] = []
    offset = 0
    for part in parts:
        if not part:
            raise ParseError("empty generator", offset)
        parsed.append(_parse_generator(part, offset, n))
        offset += len(part) + 1
    inferred = max((max(exps, default=-1) for exps in parsed), default=-1) + 1
    width = n if n is not None else max(inferred, 1)
    gens = [tuple(exps.get(i, 0) for i in range(width)) for exps in parsed]
    return make_ideal(width, gens)


def _ideal_from_json(payload: dict, n: int | None) -> MonomialIdeal:
    if "generators" not in payload:
        raise ParseError("JSON ideal needs a 'generators' key", 0)
    width = payload.get("n", n if n is not None else 0)
    if isinstance(width, bool) or not isinstance(width, int):
        raise InvalidInput(f"JSON 'n' must be an integer, got {width!r}")
    gens = payload["generators"]
    if not isinstance(gens, list):
        raise InvalidInput(f"JSON 'generators' must be a list, got {gens!r}")
    if width <= 0:
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
