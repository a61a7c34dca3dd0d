import json
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from newton_segre import (DimensionMismatch, InvalidInput, ParseError, ZeroGenerator,
                          contains, lct_condition, make_ideal, monomial_str,
                          newton_polyhedron, parse_ideal, polygamma,
                          region_condition_via_lct, serialize_ideal, stretch)
from newton_segre.ideals import MAX_VARIABLES, _rationals
from tests.conftest import random_ideal, traced_peak

_IDEALS = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, 12), min_size=n, max_size=n).filter(any),
    min_size=1, max_size=6).map(lambda gens: make_ideal(n, gens)))


def test_dominated_generator_removed():
    ideal = make_ideal(2, [(2, 0), (3, 1)])
    assert ideal.generators == ((2, 0),)


def test_pure_power_kept():
    assert make_ideal(1, [(5,)]).generators == ((5,),)


def test_zero_generator_rejected():
    with pytest.raises(ZeroGenerator):
        make_ideal(2, [(0, 0), (1, 1)])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        make_ideal(2, [(1, 2, 3)])


def test_incomparable_generators_survive():
    ideal = make_ideal(2, [(2, 0), (1, 1), (0, 2)])
    assert ideal.generators == ((0, 2), (1, 1), (2, 0))


def test_minimalization_idempotent(rng):
    for _ in range(50):
        ideal = random_ideal(rng)
        again = make_ideal(ideal.n, ideal.generators)
        assert again == ideal


def test_stretch_pure_power_two_vars():
    # (x1^l) under factors (a2, a1) becomes (x1^(l*a2))
    ideal = make_ideal(2, [(3, 0)])
    assert stretch(ideal, (4, 7)).generators == ((12, 0),)


def test_stretch_componentwise():
    assert stretch(make_ideal(2, [(2, 1)]), (2, 3)).generators == ((4, 3),)


def test_stretch_identity():
    ideal = make_ideal(2, [(2, 0), (1, 1)])
    assert stretch(ideal, (1, 1)) == ideal


def test_stretch_preserves_minimality(rng):
    for _ in range(30):
        ideal = random_ideal(rng)
        factors = tuple(rng.randint(1, 5) for _ in range(ideal.n))
        stretched = stretch(ideal, factors)
        assert len(stretched.generators) == len(ideal.generators)


@pytest.mark.parametrize("call", [
    lambda: make_ideal(2, [(1.5, 0), (0, 2)]),
    lambda: make_ideal(2, [(True, 0), (0, 2)]),
    lambda: make_ideal(2, [("3", 0), (0, 2)]),
    lambda: stretch(make_ideal(2, [(2, 1)]), (2.5, 1)),
    lambda: stretch(make_ideal(2, [(2, 1)]), (True, 1)),
    lambda: lct_condition(make_ideal(2, [(2, 1)]), (1.5, 2), 3),
    lambda: region_condition_via_lct(make_ideal(2, [(2, 1)]), (2, True), 3),
], ids=["exponent-float", "exponent-bool", "exponent-str", "stretch-float",
        "stretch-bool", "direction-float", "direction-bool"])
def test_non_integer_values_are_refused_not_truncated(call):
    with pytest.raises(InvalidInput):
        call()


# ---- parsing --------------------------------------------------------------

def test_parse_text():
    ideal = parse_ideal("x1^2, x1*x2")
    assert ideal.n == 2
    assert ideal.generators == ((1, 1), (2, 0))


def test_parse_whitespace_and_implicit_star():
    assert parse_ideal(" x1 ^2 ,x1 x2 ") == parse_ideal("x1^2,x1*x2")


@pytest.mark.parametrize("text, position", [("x1 2", 3), ("x1^2 3, x2", 5)])
def test_parse_whitespace_between_digits_is_an_error(text, position):
    # removing the whitespace would read x12 and x1^23
    with pytest.raises(ParseError) as err:
        parse_ideal(text)
    assert err.value.position == position


def test_parse_repeated_variable_accumulates():
    assert parse_ideal("x1*x1").generators == ((2,),)


def test_parse_json_string_and_dict():
    ideal = parse_ideal('{"n": 1, "generators": [[3]]}')
    assert ideal.generators == ((3,),)
    assert parse_ideal({"n": 2, "generators": [[2, 0], [1, 1]]}).n == 2


def test_parse_zero_power_is_unit_ideal():
    with pytest.raises(ZeroGenerator):
        parse_ideal("x1^0")


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_ideal("x1^2, y3")
    assert err.value.position == 6


def test_parse_explicit_n_widens():
    ideal = parse_ideal("x1^3", n=2)
    assert ideal.n == 2
    assert ideal.generators == ((3, 0),)


def test_parse_explicit_n_rejects_out_of_range():
    with pytest.raises(DimensionMismatch):
        parse_ideal("x1*x3", n=2)


def test_round_trip(rng):
    for _ in range(25):
        ideal = random_ideal(rng)
        assert parse_ideal(serialize_ideal(ideal)) == ideal


@given(_IDEALS, st.randoms(use_true_random=False))
def test_round_trips(ideal, rnd):
    """The dict, JSON and text forms all parse back to the same ideal, also
    with the generators and factors reordered and spaces added."""
    assert parse_ideal(serialize_ideal(ideal)) == ideal
    assert parse_ideal(json.dumps(serialize_ideal(ideal))) == ideal
    text = ", ".join(monomial_str(g) for g in ideal.generators)
    assert str(ideal) == f"({text})"
    assert parse_ideal(text, n=ideal.n) == ideal
    shuffled = []
    for g in rnd.sample(ideal.generators, len(ideal.generators)):
        factors = monomial_str(g).split("*")
        rnd.shuffle(factors)
        shuffled.append(" * ".join(factors))
    assert parse_ideal(" ,  ".join(shuffled), n=ideal.n) == ideal
    widest = max(i for g in ideal.generators for i, e in enumerate(g) if e) + 1
    assert parse_ideal(text) == make_ideal(widest, [g[:widest] for g in ideal.generators])


_SPACE = st.text(st.sampled_from(" \t\n\u00a0"), max_size=2)
# neither whitespace nor a digit, and no character of the grammar
_UNREADABLE = st.characters().filter(
    lambda c: not (c.isspace() or c.isdecimal() or c in "x^*,{"))


@st.composite
def _typed_text(draw):
    """An ideal and its text with whitespace wherever the grammar allows it:
    around every token and around x and ^, never inside a number."""
    ideal = draw(_IDEALS)
    generators = []
    for g in ideal.generators:
        factors = []
        for i, e in enumerate(g):
            if e:
                power = draw(_SPACE) + "^" + draw(_SPACE) + str(e)
                factors.append("x" + draw(_SPACE) + str(i + 1)
                               + (power if e > 1 or draw(st.booleans()) else ""))
        joints = [draw(_SPACE) + draw(st.sampled_from(["*", ""])) + draw(_SPACE)
                  for _ in factors[1:]]
        generators.append(factors[0] + "".join(j + f for j, f in zip(joints, factors[1:])))
    comma = draw(_SPACE) + "," + draw(_SPACE)
    return ideal, draw(_SPACE) + comma.join(generators) + draw(_SPACE)


@given(_typed_text(), st.data())
def test_parse_error_position_is_the_index_as_typed(typed, data):
    ideal, text = typed
    assert parse_ideal(text, n=ideal.n) == ideal
    at = data.draw(st.integers(0, len(text)))
    bad = text[:at] + data.draw(_UNREADABLE) + text[at:]
    with pytest.raises(ParseError) as err:
        parse_ideal(bad)
    assert err.value.position == at


def test_json_error_position_counts_the_typed_text():
    text = ' \n\t{"n": 1, "generators": [[3],]}'
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(text)
    with pytest.raises(ParseError) as err:
        parse_ideal(text)
    assert err.value.position == expected.value.pos == text.index("]}")


@pytest.mark.parametrize("call", [
    lambda: parse_ideal("x99999999999999999999"),
    lambda: parse_ideal("x1", n=10 ** 20),
    lambda: parse_ideal('{"n": 100000000000000000000, "generators": [[1]]}'),
    lambda: make_ideal(MAX_VARIABLES + 1, [(1,)]),
], ids=["index", "n", "json", "make_ideal"])
def test_width_above_the_bound_is_refused_before_allocating(call):
    make_ideal(1, [(1,)])

    def refused():
        with pytest.raises(DimensionMismatch, match=f"1 to {MAX_VARIABLES} variables"):
            call()

    start = time.perf_counter()
    _, peak = traced_peak(refused)
    assert time.perf_counter() - start < 1
    assert peak < 1 << 20


def test_width_at_the_bound_is_accepted():
    ideal = parse_ideal(f"x{MAX_VARIABLES}")
    assert ideal.n == MAX_VARIABLES
    assert ideal.generators == ((0,) * (MAX_VARIABLES - 1) + (1,),)


def test_monomial_str():
    assert monomial_str((2, 0, 1)) == "x1^2*x3"
    assert monomial_str((0, 1)) == "x2"


def test_numpy_float_points_read_as_their_float64_value():
    """A numpy float scalar is a point like a Python float: every reader of
    points takes it as the rational its float64 value stores."""
    assert _rationals((np.float32(0.5), np.float64(0.25)), "x") == (
        [Fraction(1, 2), Fraction(1, 4)], True)
    assert polygamma(1, np.float32(0.5)) == polygamma(1, 0.5)
    poly = newton_polyhedron(make_ideal(2, [(2, 0), (0, 3)]))
    assert contains(poly, (np.float32(1.5), 1)) == contains(poly, (1.5, 1))
