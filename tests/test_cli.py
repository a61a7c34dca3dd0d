import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from newton_segre import EstimatorConfig, estimate, kernel_term, make_ideal
from newton_segre.cli import main
from tests.conftest import subprocess_env


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lct_output(capsys):
    code, out, _ = run_cli(["lct", "x1^2,x2^3"], capsys)
    assert code == 0
    assert json.loads(out) == {"lct": "5/6", "sigma": "6/5"}


def test_segre_output(capsys):
    code, out, _ = run_cli(["segre", "x1^2", "--ambient", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["pushforward"] == ["2", "-4", "8"]
    assert payload["pieces"] == 1
    assert payload["multivariate"][0] == {"exp": [1], "coeff": "2"}


def test_estimate_single_value(capsys):
    code, out, _ = run_cli(
        ["estimate", "x1*x2", "--m", "200", "--X", "1,1"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert abs(float(payload["estimate"]) - 2 / 3) < float(payload["abs_error"]) + 0.01
    assert float(payload["abs_error"]) < 0.01


def test_estimate_csv_over_m_list(capsys):
    code, out, _ = run_cli(
        ["estimate", "x1^2,x2^3", "--X", "1/3,1/2", "--m-list", "50,100"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,estimate,exact,abs_error,seconds"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "50"
    assert abs(float(first[2]) - 0.24) < 1e-12


@pytest.mark.parametrize("mode, arith", [("membership_based", "float64"),
                                         ("membership_based", "exact_rational"),
                                         ("lct_based", "exact_rational")])
def test_estimate_m_prints_the_m_list_row(mode, arith, capsys):
    """--m M prints as JSON the row that --m-list M prints as CSV."""
    flags = ["--X", "1/3,1/2", "--mode", "lct" if mode == "lct_based" else "membership",
             "--arith", "exact" if arith == "exact_rational" else "float"]
    code, out, _ = run_cli(["estimate", "x1^2,x2^3", "--m", "12"] + flags, capsys)
    assert code == 0
    payload = json.loads(out)
    code, out, _ = run_cli(["estimate", "x1^2,x2^3", "--m-list", "12"] + flags, capsys)
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    for key in ("m", "estimate", "exact", "abs_error"):
        assert str(payload[key]) == row[key]
    cfg = EstimatorConfig(m=12, X=(Fraction(1, 3), Fraction(1, 2)), condition_mode=mode,
                          arithmetic=arith)
    value = estimate(make_ideal(2, [(2, 0), (0, 3)]), cfg)
    if arith == "exact_rational":
        assert payload["estimate_rational"] == str(value)
    else:
        assert "estimate_rational" not in payload
        assert payload["estimate"] == format(value, ".17g")


def test_empty_estimate_is_zero_in_every_mode(capsys):
    """At m = 1 no lattice point a >= 1 of (x1, x2) lies in the region, so
    the sum is empty: every mode prints 0, the float one with no sign."""
    for flags in ([], ["--arith", "exact"], ["--mode", "lct"]):
        code, out, err = run_cli(["estimate", "x1,x2", "--m", "1", "--X", "1,1"] + flags,
                                 capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["estimate"] == "0"


def test_estimate_exact_arithmetic(capsys):
    code, out, _ = run_cli(
        ["estimate", "x1^2,x2^3", "--m", "30", "--X", "1/3,1/2",
         "--arith", "exact"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert "/" in payload["estimate_rational"]


def test_verify_csv(capsys):
    code, out, _ = run_cli(
        ["verify", "--identity", "power", "--params", "l=2,X=1/2",
         "--m-list", "100,200"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,value,target"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["100", "200"]
    assert all(abs(float(r[2]) - 0.5) < 1e-15 for r in rows)


def test_diagram_json_and_svg(tmp_path, capsys):
    svg = tmp_path / "staircase.svg"
    code, out, _ = run_cli(["diagram", "x1^2,x1*x2", "--svg", str(svg)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["extreme_points"] == [[1, 1], [2, 0]]
    assert any(f["diagram"] for f in payload["facets"])
    assert svg.read_text().startswith("<svg")
    # 60 px per unit, half a unit of margin, y pointing down in a 4-unit box
    lines = re.findall(r'<polyline points="([^"]*)"', svg.read_text())
    staircase = [(round((float(x) - 30) / 60), round((210 - float(y)) / 60))
                 for x, y in (pt.split(",") for pt in lines[1].split())]
    # a1 >= 1 down to (1,1), the facet (1,1)-(2,0), then the a1 axis
    assert staircase == [(1, 3), (1, 1), (2, 0), (3, 0)]


def test_parse_error_is_machine_readable(capsys):
    code, out, err = run_cli(["lct", "x1^"], capsys)
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "ParseError"


def test_zero_generator_passthrough(capsys):
    code, _, err = run_cli(["lct", "x1^0"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "ZeroGenerator"


def test_explicit_n_flag(capsys):
    _, one_var, _ = run_cli(["segre", "x1^3", "--ambient", "4", "--n", "1"], capsys)
    _, two_var, _ = run_cli(["segre", "x1^3", "--ambient", "4", "--n", "2"], capsys)
    push1 = json.loads(one_var)["pushforward"]
    push2 = json.loads(two_var)["pushforward"]
    assert push1 == push2 == ["3", "-9", "27", "-81"]


def test_lct_mode_estimate_with_large_X(capsys):
    """The lct-based sum is exact, so (m + a.X)^3 with X2 = 1e102 cannot
    overflow as the float kernel terms did."""
    code, out, err = run_cli(["estimate", "x1^2,x2^3", "--m", "10", "--X", "1,1e102",
                              "--mode", "lct"], capsys)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert 0 < float(payload["estimate"]) < float(payload["exact"])


def test_deterministic_bytes(capsys):
    _, first, _ = run_cli(
        ["estimate", "x1^2,x2^3", "--m", "40", "--X", "1/3,1/2",
         "--arith", "exact"], capsys)
    _, second, _ = run_cli(
        ["estimate", "x1^2,x2^3", "--m", "40", "--X", "1/3,1/2",
         "--arith", "exact"], capsys)
    a, b = json.loads(first), json.loads(second)
    del a["seconds"], b["seconds"]
    assert a == b
    _, d1, _ = run_cli(["diagram", "x1^2,x1*x2"], capsys)
    _, d2, _ = run_cli(["diagram", "x1^2,x1*x2"], capsys)
    assert d1 == d2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "newton_segre.cli", "lct", "x1*x2"],
        capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"lct": "1", "sigma": "1"}


def test_exact_geometry_commands_do_not_load_numpy(capsys):
    """lct, segre and diagram stay off numpy, whose import costs about
    14 MiB and tens of milliseconds per process; only the lattice and
    polygamma code may load it. Each exits 0 with the output of a run in
    this process."""
    commands = [["lct", "x1^2,x2^3"], ["segre", "x1^2,x1*x2,x2^3", "--ambient", "2"],
                ["diagram", "x1^2,x1*x2"]]
    script = (
        "import json, sys\n"
        "from newton_segre.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    expected = "".join(run_cli(argv, capsys)[1] for argv in commands)
    assert proc.stdout == expected + "False\n"


def test_estimate_requires_m(capsys):
    code, out, err = run_cli(["estimate", "x1*x2", "--X", "1,1"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "InvalidInput",
                               "message": "one of the arguments --m --m-list is required"}


@pytest.mark.parametrize("args", [
    (["estimate", "x1*x2", "--X", "1,1", "--m", "0"], "InvalidInput"),
    (["estimate", "x1*x2", "--X", "1,1", "--m-list", "5,a"], "InvalidInput"),
    (["estimate", "x1*x2", "--X", "1,1", "--m", "10", "--cutoff", "5"], "InvalidInput"),
    (["estimate", "x1*x2", "--X", "1,1", "--m", "10", "--mode", "nope"], "InvalidInput"),
    # --mode takes the two documented spellings only
    (["estimate", "x1*x2", "--X", "1,1", "--m", "10", "--mode", "lct_based"], "InvalidInput"),
    (["estimate", "x1*x2", "--X", "1,1", "--m", "10", "--mode", "membership_based"],
     "InvalidInput"),
    (["lct", '{"n":2,"generators":[[-1,2]]}'], "InvalidInput"),
    (["lct", '{"n":2,"generators":[[1,"a"]]}'], "InvalidInput"),
    (["verify", "--identity", "power", "--params", "l=2", "--m-list", "5"],
     "InvalidInput"),
    (["verify", "--identity", "power", "--params", "l=2,X=a", "--m-list", "5"],
     "InvalidInput"),
    (["verify", "--identity", "power", "--params", "l=2,X=1/2", "--m-list", "0"],
     "InvalidInput"),
    # the exact rational has 10623 digits, beyond the int-to-str limit
    (["estimate", "x1", "--n", "2", "--m", "20", "--X", "1/2,1/3", "--arith", "exact"],
     "EstimateTooLarge"),
    (["estimate", "x1*x2", "--X", "1,1", "--m", "100", "--mode", "lct"],
     "EstimateTooLarge"),
    (["lct", '{"n":"x","generators":[[1,2]]}'], "InvalidInput"),
    (["lct", '{"n":2,"generators":5}'], "InvalidInput"),
    (["estimate", "x1*x2", "--X", "1,a", "--m", "10"], "InvalidInput"),
    (["verify", "--identity", "power", "--params", "l=2,X", "--m-list", "5"],
     "InvalidInput"),
    (["diagram", "x1*x2*x3", "--svg", os.devnull], "InvalidInput"),
    (["estimate", "x1*x2,x3", "--m", "10", "--X", "1,1"], "InvalidInput"),
    (["estimate", "x1*x2", "--m-list", "10,20", "--X", "1"], "InvalidInput"),
    (["estimate", "x1*x2", "--X", "1,1", "--m-list", ""], "InvalidInput"),
    (["verify", "--identity", "power", "--params", "l=1,X=1e400", "--m-list", "5"],
     "InvalidInput"),
    (["verify", "--identity", "two-var", "--params", "l=1,X1=1e-300,X2=1",
      "--m-list", "5"], "EstimateTooLarge"),
    (["verify", "--identity", "power", "--params", "l=1.5,X=1/2", "--m-list", "5"],
     "InvalidInput"),
    # about 10^8 polygamma terms
    (["verify", "--identity", "two-var", "--params", "l=1,X1=1/100,X2=1",
      "--m-list", "5"], "EstimateTooLarge"),
    # the float path needs every X_i^(n+1) to be a nonzero float64
    (["estimate", "x1*x2", "--m", "10", "--X", "1e400,1"], "InvalidInput"),
    (["estimate", "x1*x2", "--m-list", "5,10", "--X", "1e400,1"], "InvalidInput"),
    (["estimate", "x1^2,x2^3", "--m", "10", "--X", "1,1e-400"], "InvalidInput"),
    (["estimate", "x1^2,x2^3", "--m", "10", "--X", "1,1e-300"], "InvalidInput"),
    (["estimate", "x1^2,x2^3", "--m", "10", "--X", "1,1e150"], "InvalidInput"),
    # X2^2 is beyond the float range, so the tail rule needs infinitely many terms
    (["verify", "--identity", "two-var", "--params", "l=1,X1=1,X2=1e200",
      "--m-list", "5"], "EstimateTooLarge"),
    (["verify", "--identity", "diagonal", "--params", "l1=1,l2=1,X1=1,X2=1e200",
      "--m-list", "5"], "EstimateTooLarge"),
    # the staircase m*l2 - floor(a1*l2/l1) would leave int64
    (["verify", "--identity", "diagonal", "--params",
      "l1=1,l2=100000000000000000000,X1=1,X2=1", "--m-list", "5"], "EstimateTooLarge"),
    # m*l + m/X beyond the float range: an int too large, and m/X = inf
    (["verify", "--identity", "power", "--params", "l=1" + "0" * 400 + ",X=1",
      "--m-list", "5"], "InvalidInput"),
    (["verify", "--identity", "power", "--params", "l=1,X=1e-320", "--m-list", "5"],
     "InvalidInput"),
    # the two-variable identities: l beyond int64, X1 <= 0 and X2^2 underflowing
    # to 0 reach their checks before the target is computed; a target of inf/inf
    (["verify", "--identity", "two-var", "--params", "l=1" + "0" * 400 + ",X1=1,X2=1",
      "--m-list", "5"], "EstimateTooLarge"),
    (["verify", "--identity", "two-var", "--params", "l=1,X1=-1,X2=1", "--m-list", "5"],
     "NonPositiveArgument"),
    (["verify", "--identity", "diagonal", "--params", "l1=1,l2=1,X1=1,X2=1e-300",
      "--m-list", "5"], "InvalidInput"),
    (["verify", "--identity", "two-var", "--params", "l=3,X1=1e308,X2=1e10",
      "--m-list", "1"], "InvalidInput"),
    # argparse usage errors: a bad int, a missing required flag, an unknown
    # flag, no subcommand
    (["estimate", "x1*x2", "--X", "1,1", "--m", "a"], "InvalidInput"),
    (["segre", "x1"], "InvalidInput"),
    (["lct", "x1", "--bogus"], "InvalidInput"),
    ([], "InvalidInput"),
    # exact mode would enumerate 640^3 lattice points, above 2^22
    (["estimate", "x1*x2*x3", "--m", "8", "--X", "1,1,1", "--arith", "exact"],
     "EstimateTooLarge"),
    # JSON exponents that are not integers are refused, not truncated
    (["lct", '{"n":2,"generators":[[1.5,0],[0,2]]}'], "InvalidInput"),
    (["lct", '{"n":2,"generators":[[true,0],[0,2]]}'], "InvalidInput"),
    (["lct", '{"n":2,"generators":[["3",0],[0,2]]}'], "InvalidInput"),
    # an SVG path that cannot be written: a missing directory, a directory
    (["diagram", "x1^2,x2", "--svg", "{tmp}/missing/a.svg"], "InvalidInput"),
    (["diagram", "x1^2,x2", "--svg", "{tmp}"], "InvalidInput"),
    (["estimate", "x1^2,x2^3", "--m", "10", "--m-list", "10,20", "--X", "1/3,1/2"],
     "InvalidInput"),
    # a series of C(10^8 + 1, 1) terms, above 2^22
    (["segre", "x1", "--ambient", "100000000"], "EstimateTooLarge"),
    # C(65537, 1) series terms, one above 2^16
    (["segre", "x1", "--ambient", "65536"], "EstimateTooLarge"),
    # verify refuses what it would ignore: a repeated key, a key the identity
    # does not read, a cutoff for the tail-free power identity
    (["verify", "--identity", "diagonal", "--params", "l1=2,l2=3,X1=1/3,X2=1/2,l2=4",
      "--m-list", "5"], "InvalidInput"),
    (["verify", "--identity", "power", "--params", "l=2,X=1/2,l=3", "--m-list", "5"],
     "InvalidInput"),
    (["verify", "--identity", "power", "--params", "l=2,X=1/2,X2=1", "--m-list", "5"],
     "InvalidInput"),
    (["verify", "--identity", "two-var", "--params", "l=2,X1=1/3,X2=1/2,l1=1",
      "--m-list", "5"], "InvalidInput"),
    (["verify", "--identity", "power", "--params", "l=2,X=1/2", "--m-list", "5",
      "--cutoff", "100"], "InvalidInput"),
    # box coordinates past int64 on an axis no facet sees: an OverflowError,
    # and a column top + 1 that wrapped to a negative int64
    (["estimate", "x1", "--n", "2", "--m", "3", "--X", "1,1",
      "--cutoff", "100000000000000000000"], "EstimateTooLarge"),
    (["estimate", "x1", "--n", "2", "--m", "3", "--X", "1,1",
      "--cutoff", "9223372036854775807"], "EstimateTooLarge"),
    # a JSON "n" is read as given, never inferred over
    (["lct", '{"n": -1, "generators": [[1]]}'], "DimensionMismatch"),
    (["lct", '{"n": 0, "generators": [[1]]}'], "DimensionMismatch"),
    # --m-list increases strictly: a repeated m would print the same row twice
    (["estimate", "x1^2", "--m-list", "3,3", "--X", "1"], "InvalidInput"),
])
def test_estimate_bad_input_is_typed(args, capsys, tmp_path):
    argv, error = args
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == error


def test_lct_mode_needs_no_int64_facets(capsys):
    """The lct-based oracle reads the facets as Python ints, so exponents
    beyond int64 leave it exact: with N = 10^19 the region a1/6 + a2/(3N)
    <= 1 holds a1 <= 5 at every a2 <= 10."""
    code, out, err = run_cli(["estimate", "x1^2,x2^10000000000000000000", "--m", "3",
                              "--cutoff", "10", "--X", "1,1", "--mode", "lct",
                              "--arith", "exact"], capsys)
    assert (code, err) == (0, "")
    expected = sum(kernel_term((a1, a2), 3, (1, 1))
                   for a1 in range(1, 6) for a2 in range(1, 11))
    assert Fraction(json.loads(out)["estimate_rational"]) == expected


def test_float_estimate_cutoff_at_the_int64_edge(capsys):
    """The largest cutoff whose box coordinates and column tops + 1 fit in
    int64 is still summed."""
    code, out, err = run_cli(["estimate", "x1", "--n", "2", "--m", "3", "--X", "1,1",
                              "--cutoff", str(2 ** 63 - 2)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["estimate"] == "0.31532981242825275"


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["estimate", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: newton-segre estimate")


@pytest.mark.parametrize("args, cost", [
    # a cell with two tail axes: 10^7 x 1000 columns
    (["x3", "--n", "3", "--m", "1000", "--X", "1,1,1"], "10000000000 lattice columns"),
    # the common denominator of X times m leaves int64
    (["x1,x2", "--m", "100", "--X", "1/303700049,1/303700051", "--arith", "exact"],
     "beyond the int64 limit"),
    # the facet values c*m + w.a leave int64 (they overflowed in numpy)
    (["x1^2,x2^1000000000000000000", "--m", "10", "--X", "1,1"], "beyond the int64 limit"),
    (["x1^2,x2^1000000000000000000", "--m", "10", "--X", "1,1", "--arith", "exact"],
     "beyond the int64 limit"),
    (["x1^2,x2^10000000000000000000", "--m", "10", "--X", "1,1"], "beyond the int64 limit"),
])
def test_estimate_too_large_is_refused(args, cost, capsys):
    start = time.perf_counter()
    code, out, err = run_cli(["estimate", *args], capsys)
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "EstimateTooLarge"
    assert cost in payload["message"]


def test_facet_search_budget(capsys):
    """The maximal ideal in 11 variables needs C(22, 11) = 705,432 subsets,
    above MAX_FACET_SUBSETS: refused at once. In 10 variables, C(20, 10) =
    184,756 subsets, it is still searched."""
    start = time.perf_counter()
    code, out, err = run_cli(["lct", ",".join(f"x{i}" for i in range(1, 12))], capsys)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    payload = json.loads(line)
    assert payload["error"] == "EstimateTooLarge"
    assert "705432" in payload["message"]

    code, out, err = run_cli(["lct", ",".join(f"x{i}" for i in range(1, 11))], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["lct"] == "10"


@pytest.mark.parametrize("args", [
    ["lct", "x99999999999999999999"],
    ["lct", "x1", "--n", "100000000000000000000"],
    ["lct", '{"n": 100000, "generators": [[1]]}'],
    ["estimate", "x1", "--n", "24", "--m", "2", "--X", ",".join(["1"] * 24)],
], ids=["index", "n", "json", "estimate-cells"])
def test_oversized_input_is_refused_at_once(args, capsys):
    """Each was a MemoryError, an OOM kill or a walk of 2^24 cells."""
    start = time.perf_counter()
    code, out, err = run_cli(args, capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert set(json.loads(line)) == {"error", "message"}
