import json
import subprocess
import sys
import time

import pytest

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


def test_estimate_requires_m(capsys):
    with pytest.raises(SystemExit):
        main(["estimate", "x1*x2", "--X", "1,1"])


@pytest.mark.parametrize("args", [
    (["estimate", "x1*x2", "--X", "1,1", "--m", "0"], "InvalidInput"),
    (["estimate", "x1*x2", "--X", "1,1", "--m-list", "5,a"], "InvalidInput"),
    (["estimate", "x1*x2", "--X", "1,1", "--m", "10", "--cutoff", "5"], "InvalidInput"),
    (["estimate", "x1*x2", "--X", "1,1", "--m", "10", "--mode", "nope"], "InvalidInput"),
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
])
def test_estimate_bad_input_is_typed(args, capsys):
    argv, error = args
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == error


@pytest.mark.parametrize("args, cost", [
    # a cell with two tail axes: 10^7 x 1000 columns
    (["x3", "--n", "3", "--m", "1000", "--X", "1,1,1"], "10000000000 lattice columns"),
    # the common denominator of X times m leaves int64
    (["x1,x2", "--m", "100", "--X", "1/303700049,1/303700051", "--arith", "exact"],
     "beyond the int64 limit"),
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
