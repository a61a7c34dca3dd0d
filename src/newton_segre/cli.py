"""Command-line front end.

Subcommands: lct, segre, estimate, verify, diagram. Exact results are
serialized as "p/q" strings, never floats; estimator and identity outputs
are CSV with 17 significant digits. Errors, bad arguments included, exit
with code 2 and a one-line JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from .errors import EstimateTooLarge, InvalidInput, NewtonSegreError
from .ideals import parse_ideal, serialize_ideal
from .lattice import EXACT, FLOAT64, LCT_BASED, MEMBERSHIP, convergence_report
from .lct import diagonal_exit
from .polygamma import (verify_diagonal_identity, verify_power_identity,
                        verify_two_variable_identity)
from .polyhedron import newton_polyhedron, polyhedron_to_json
from .segre import segre_class


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _parse_x(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"bad parameter list {text!r}: {exc}") from None


def _parse_m_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise InvalidInput(f"bad m list {text!r}: expected comma-separated integers") from None


def _decimal_digits(k: int) -> int:
    """Number of decimal digits of abs(k), without converting it to str."""
    k = abs(k)
    d = int(k.bit_length() * math.log10(2)) + 1  # exact or one too many
    return d - (k < 10 ** (d - 1))


def _write_csv(header: list[str], rows) -> None:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")  # RFC 4180
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(out.getvalue())


def _cmd_lct(args) -> int:
    ideal = parse_ideal(args.ideal, n=args.n)
    sigma = diagonal_exit(newton_polyhedron(ideal))
    print(json.dumps({"lct": str(1 / sigma), "sigma": str(sigma)}))
    return 0


def _cmd_segre(args) -> int:
    ideal = parse_ideal(args.ideal, n=args.n)
    result = segre_class(ideal, ambient_dim=args.ambient)
    payload = {
        "pushforward": [str(c) for c in result.pushforward],
        "multivariate": [
            {"exp": list(exp), "coeff": str(c)}
            for exp, c in result.multivariate.terms()
        ],
        "pieces": len(result.pieces),
        "ambient_dim": result.ambient_dim,
    }
    print(json.dumps(payload))
    return 0


def _cmd_estimate(args) -> int:
    ideal = parse_ideal(args.ideal, n=args.n)
    X = _parse_x(args.X)
    mode = {"membership": MEMBERSHIP, "lct": LCT_BASED}.get(args.mode, args.mode)
    arith = EXACT if args.arith == "exact" else FLOAT64
    m_list = [args.m] if args.m_list is None else _parse_m_list(args.m_list)
    rows = convergence_report(ideal, X, m_list, condition_mode=mode,
                              arithmetic=arith, ray_cutoff=args.cutoff)
    header = ["m", "estimate", "exact", "abs_error", "seconds"]
    lines = [[row.m, _fmt(row.estimate), _fmt(row.exact_value), _fmt(row.abs_error),
              _fmt(row.elapsed_time)] for row in rows]
    if args.m_list is not None:
        _write_csv(header, lines)
        return 0
    payload = dict(zip(header, lines[0]))  # --m: the one row, as JSON
    if arith == EXACT:
        value = rows[0].estimate
        try:
            payload["estimate_rational"] = str(value)
        except ValueError:  # beyond the interpreter's int-to-str digit limit
            digits = max(_decimal_digits(value.numerator),
                         _decimal_digits(value.denominator))
            raise EstimateTooLarge(
                f"exact estimate has {digits} decimal digits, above the "
                f"{sys.get_int_max_str_digits()}-digit limit of int-to-str "
                "conversion; lower m or --cutoff") from None
    print(json.dumps(payload))
    return 0


class _Params(dict):
    """--params values as exact rationals, read back as int or float."""

    def __missing__(self, key: str):
        raise InvalidInput(f"this identity needs --params {key}=...")

    def integer(self, key: str) -> int:
        value = self[key]
        if value.denominator != 1:
            raise InvalidInput(f"--params {key} must be an integer, got {value}")
        return int(value)

    def real(self, key: str) -> float:
        try:
            return float(self[key])
        except OverflowError:
            raise InvalidInput(f"--params {key} is beyond the float range") from None


def _identity_params(text: str) -> _Params:
    params = _Params()
    for part in text.split(","):
        key, _, value = part.partition("=")
        if not value:
            raise InvalidInput(f"bad --params entry {part!r}, expected key=value")
        try:
            params[key.strip()] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise InvalidInput(f"bad --params value {part!r}, expected a rational") from None
    return params


def _cmd_verify(args) -> int:
    params = _identity_params(args.params)
    m_values = _parse_m_list(args.m_list)
    # each target is computed after the checks, which validate the parameters
    if args.identity == "power":
        ell, X = params.integer("l"), params.real("X")
        values = [verify_power_identity(ell, X, m) for m in m_values]
        # the power check returns the limit argument, whose target is 1/(1+lX)
        target = 1 / (1 + ell * X)
    elif args.identity == "two-var":
        ell, X1, X2 = params.integer("l"), params.real("X1"), params.real("X2")
        values = [verify_two_variable_identity(ell, X1, X2, m, tail_cutoff=args.cutoff)
                  for m in m_values]
        target = ell * X1 / (1 + ell * X1)
    else:
        l1, l2 = params.integer("l1"), params.integer("l2")
        X1, X2 = params.real("X1"), params.real("X2")
        values = [verify_diagonal_identity(l1, l2, X1, X2, m, tail_cutoff=args.cutoff)
                  for m in m_values]
        target = l1 * l2 * X1 * X2 / ((1 + l1 * X1) * (1 + l2 * X2))
    if not math.isfinite(target):
        raise InvalidInput(f"the {args.identity} identity's target is not a finite float64")
    _write_csv(["m", "value", "target"],
               ([m, _fmt(value), _fmt(target)] for m, value in zip(m_values, values)))
    return 0


def _staircase_svg(poly) -> str:
    """Minimal SVG of the n=2 staircase: extreme points and the diagram as
    one polyline, from (v_0[0], top) through the extreme points by a1 to
    (top, v_last[1])."""
    pts = sorted(poly.extreme_points)
    top = max(max(p) for p in pts) + 1
    scale = 60
    size = (top + 1) * scale

    def xy(p) -> tuple[float, float]:
        return p[0] * scale + scale / 2, size - p[1] * scale - scale / 2

    def polyline(points, style: str) -> str:
        coords = " ".join(f"{x},{y}" for x, y in map(xy, points))
        return f'<polyline points="{coords}" fill="none" {style}/>'

    path = [(pts[0][0], top)] + pts + [(top, pts[-1][1])]
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">',
             polyline([(0, top), (0, 0), (top, 0)], 'stroke="black"'),
             polyline(path, 'stroke="steelblue" stroke-width="2"')]
    for p in pts:
        cx, cy = xy(p)
        lines.append(f'<circle cx="{cx}" cy="{cy}" r="5" fill="crimson"/>')
    lines.append("</svg>")
    return "\n".join(lines)


def _cmd_diagram(args) -> int:
    ideal = parse_ideal(args.ideal, n=args.n)
    if args.svg and ideal.n != 2:
        raise InvalidInput("staircase SVG is only drawn for n = 2")
    poly = newton_polyhedron(ideal)
    payload = polyhedron_to_json(poly)
    payload["ideal"] = serialize_ideal(ideal)
    if args.svg:
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(_staircase_svg(poly))
        except OSError as exc:
            raise InvalidInput(f"cannot write {args.svg!r}: {exc.strerror}") from None
    print(json.dumps(payload))
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InvalidInput, reported as one JSON line by main."""

    def error(self, message: str):
        raise InvalidInput(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="newton-segre",
        description="Newton polyhedra, log canonical thresholds and Segre "
                    "classes of monomial ideals")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_ideal(p):
        p.add_argument("ideal", help='ideal text like "x1^2, x1*x2" or JSON')
        p.add_argument("--n", type=int, default=None,
                       help="number of variables (default: inferred)")

    p = sub.add_parser("lct", help="log canonical threshold")
    add_ideal(p)
    p.set_defaults(func=_cmd_lct)

    p = sub.add_parser("segre", help="exact Segre class")
    add_ideal(p)
    p.add_argument("--ambient", type=int, required=True,
                   help="dimension of the ambient projective space")
    p.set_defaults(func=_cmd_segre)

    p = sub.add_parser("estimate", help="lattice-sum estimator")
    add_ideal(p)
    m = p.add_mutually_exclusive_group(required=True)
    m.add_argument("--m", type=int, default=None, help="refinement parameter")
    m.add_argument("--m-list", default=None,
                   help="comma-separated m values; prints a convergence CSV")
    p.add_argument("--X", required=True, help="comma-separated positive rationals")
    p.add_argument("--mode", default="membership", help="membership or lct")
    p.add_argument("--cutoff", type=int, default=None,
                   help="truncation along unbounded axes (default 10*m^2)")
    p.add_argument("--arith", choices=["float", "exact"], default="float")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("verify", help="polygamma identity checks")
    p.add_argument("--identity", choices=["power", "two-var", "diagonal"],
                   required=True)
    p.add_argument("--params", required=True,
                   help='e.g. "l=2,X=1/2" or "l1=2,l2=3,X1=1/3,X2=1/2"')
    p.add_argument("--m-list", required=True)
    p.add_argument("--cutoff", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("diagram", help="extreme points and facets")
    add_ideal(p)
    p.add_argument("--svg", default=None, help="write an n=2 staircase SVG here")
    p.set_defaults(func=_cmd_diagram)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NewtonSegreError as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
