"""Every command line gets a clean answer.

The CLI either succeeds, with exit 0 and JSON or CSV on stdout, or refuses,
with exit 2, nothing on stdout and exactly one JSON line on stderr; never a
traceback, a usage text or a non-finite number. The argument lists mix
valid values, values out of range and garbage for all five subcommands.
Sizes stay small: the lct-based and exact estimates always get a small
cutoff, because they walk every column of the box.
"""

import contextlib
import csv
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from newton_segre.cli import main

_VALID_IDEALS = [("x1^2,x2^3", 2), ("x1*x2", 2), ("x1", 1), ("x1^2,x1*x2,x2^2", 2),
                 ("x1^3,x2", 2), ("x1*x2*x3", 3), ("x1^2, x2^2, x3^2", 3),
                 ("x1*x2,x3^2", 3), ('{"n":2,"generators":[[1,0],[0,2]]}', 2),
                 # facet values beyond int64 at any m, and exponents beyond it
                 ("x1^2,x2^1000000000000000000", 2), ("x1^2,x2^10000000000000000000", 2)]
_IDEALS = st.sampled_from([text for text, _ in _VALID_IDEALS] + [
    "x1^", "", "x0", "x1^0", "x1,,x2", '{"n":2}', "x1*x3", "x1 2", "x1^2 3, x2",
    "x99999999999999999999", "x1 ^ 2", " x1,\tx2", "x1^2 3"])
_N = st.sampled_from(["2", "3", "0", "a", "100000000000000000000"])
_M = st.sampled_from(["1", "3", "8", "20", "0", "a", "1" + "0" * 30])
_M_LIST = st.sampled_from(["2,4", "5,10", "3", "4,2", "", "a"])
_X_ENTRY = st.one_of(
    st.sampled_from(["1", "1/2", "1/3", "3/4", "2"]),
    st.sampled_from(["1e102", "1e150", "1e-300", "1e400", "1e-320", "0", "-1", "1/0",
                     "inf", "a"]))
_CUTOFF = st.sampled_from(["10", "40", "3", "0", "a", "100000000000"])


def _flag(name, values):
    """[] or [name, value]."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


@st.composite
def _estimate(draw):
    text, n = draw(st.sampled_from(_VALID_IDEALS))
    X = ",".join(draw(st.lists(_X_ENTRY, min_size=n, max_size=n + 1)))
    argv = ["estimate", text, "--X", X] + draw(_flag("--n", st.sampled_from(["2", "3"])))
    mode = draw(st.sampled_from(["membership", "lct", None, "nope"]))
    arith = draw(st.sampled_from(["float", "exact", None, "bad"]))
    if mode == "lct" or arith == "exact":
        # column walks: small m and a cutoff that keeps the box small
        argv += draw(st.sampled_from([["--m", "1"], ["--m", "3"], ["--m-list", "1,2"]]))
        argv += ["--cutoff", "3"]
    else:
        argv += draw(st.one_of(_M.map(lambda v: ["--m", v]),
                               _M_LIST.map(lambda v: ["--m-list", v])))
        argv += draw(_flag("--cutoff", _CUTOFF))
    argv += [] if mode is None else ["--mode", mode]
    argv += [] if arith is None else ["--arith", arith]
    return argv


_PARAMS = {
    "power": ["l=2,X=1/2", "l=3,X=1/3", "l=1,X=1e-320", "l=1" + "0" * 400 + ",X=1",
              "l=1.5,X=1/2", "l=2", "l=2,X", "l=0,X=1/2", "l=1,X=1e300"],
    "two-var": ["l=2,X1=1/2,X2=1/2", "l=1,X1=1/3,X2=1/2", "l=2,X1=1,X2=1e200",
                "l=1,X1=1e-300,X2=1", "l=3,X1=1e300,X2=1", "l=1" + "0" * 400 + ",X1=1,X2=1",
                "l=1,X1=-1,X2=1", "a=b"],
    "diagonal": ["l1=2,l2=3,X1=1/3,X2=1/2", "l1=1,l2=2,X1=1/2,X2=1/3",
                 "l1=1,l2=100000000000000000000,X1=1,X2=1",
                 "l1=2,l2=3,X1=1e-300,X2=1/2", "l1=1,l2=1,X1=1,X2=1e-300",
                 "l1=1" + "0" * 400 + ",l2=1,X1=1,X2=1", ""],
}


@st.composite
def _verify(draw):
    identity = draw(st.sampled_from(["power", "two-var", "diagonal"]))
    argv = ["verify", "--identity", identity,
            "--params", draw(st.sampled_from(_PARAMS[identity])),
            "--m-list", draw(st.one_of(
                st.sampled_from(["5", "10,20", "3", "50"]),
                st.sampled_from(["0", "", "a", "1" + "0" * 400, "1" + "0" * 12])))]
    return argv + draw(_flag("--cutoff", st.sampled_from(["200000", "3", "a"])))


def _ideal_command(name, *flags):
    return st.tuples(st.just([name]), _IDEALS.map(lambda t: [t]), _flag("--n", _N),
                     *flags).map(lambda parts: sum(parts, []))


_ARGV = st.one_of(
    _ideal_command("lct"),
    _ideal_command("segre", st.sampled_from(["0", "1", "2", "3", "a", "100000000"]).map(
        lambda v: ["--ambient", v])),
    _ideal_command("diagram"),
    _estimate(),
    _verify(),
    # usage errors: unknown subcommands and flags, missing required arguments
    st.lists(st.sampled_from(["lct", "x1", "--n", "2", "--bogus", "-m", "segre",
                              "estimate", "--X", "verify", "--identity", "power"]),
             max_size=4),
)


def _finite_numbers(value) -> bool:
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    if isinstance(value, str):
        try:
            return math.isfinite(float(value))
        except ValueError:
            return True  # not a number, or a p/q rational
    return not isinstance(value, float) or math.isfinite(value)


@settings(max_examples=500)
@given(_ARGV)
def test_every_command_line_succeeds_or_refuses_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        if out.startswith("{"):
            payload = json.loads(out)
        else:
            payload = list(csv.DictReader(io.StringIO(out)))
            assert payload
        assert _finite_numbers(payload)
    else:
        assert code == 2
        assert out == ""
        (line,) = err.splitlines()
        assert set(json.loads(line)) == {"error", "message"}
