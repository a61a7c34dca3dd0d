"""Correctness checks and exact-output digests for benchmark jobs.

Checks run outside the timed region, right after each job, while the
package's caches still hold what the job computed. Each check returns an
error string, or None when the output is right.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction

# Criterion-7 tolerances of the acceptance suite.
POWER_ABS_TOL = 1e-3
TWO_VAR_REL_TOL = 0.01
DIAGONAL_REL_TOL = 0.01
# Exact and float estimates of one lattice sum must agree this closely.
EXACT_FLOAT_REL_TOL = 1e-12

FAILURES = ("exit2", "exception", "memory")


class Checker:
    """Per-run checking state: the package under test and a few caches."""

    def __init__(self, ns):
        self.ns = ns
        self.polyhedra = {}

    def check(self, job, res) -> str | None:
        expected = job.info.get("expected_failure")
        if res.status in FAILURES:
            if expected is not None:
                return None  # a known defect, counted in fail_ratio
            return f"{res.status}: {res.error or res.stderr.strip()}"
        if res.status != "ok":
            return f"unexpected status {res.status}"
        try:
            return getattr(self, "_" + job.argv[0])(job, res)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output ({type(exc).__name__}: {exc})"

    # ---- exact-geometry -------------------------------------------------

    def _segre(self, job, res) -> str | None:
        """A second vertex order must give the identical multivariate series."""
        ns = self.ns
        payload = json.loads(res.stdout)
        n = job.info["n"]
        ambient = int(job.argv[job.argv.index("--ambient") + 1])
        poly = ns.newton_polyhedron(ns.make_ideal(n, job.info["gens"]))
        order = sorted(poly.extreme_points, reverse=True)
        total = ns.TruncatedSeries.zero(n, ambient)
        for piece in ns.cone_decomposition(poly, vertex_order=order):
            total = total + ns.integrate_piece(piece, n, ambient)
        want = [{"exp": list(e), "coeff": str(c)} for e, c in total.terms()]
        if payload["multivariate"] != want:
            return "multivariate series depends on the vertex order"
        if payload["pushforward"] != [str(c) for c in total.pushforward(ambient)]:
            return "pushforward differs from the reordered decomposition"
        return None

    def _diagram(self, job, res) -> str | None:
        """Facets from the output must hold at every generator and cut out
        every extreme point; extreme points must be minimal generators."""
        ns = self.ns
        payload = json.loads(res.stdout)
        n = job.info["n"]
        ideal = ns.make_ideal(n, job.info["gens"])
        if payload["ideal"] != ns.serialize_ideal(ideal):
            return "ideal was not echoed back"
        facets = [([Fraction(x) for x in f["normal"]], Fraction(f["offset"]))
                  for f in payload["facets"]]
        for g in ideal.generators:
            if any(sum(w * e for w, e in zip(normal, g)) < c for normal, c in facets):
                return f"generator {g} violates a reported facet"
        for v in payload["extreme_points"]:
            if tuple(v) not in ideal.generators:
                return f"extreme point {v} is not a minimal generator"
            tight = sum(1 for normal, c in facets
                        if sum(w * e for w, e in zip(normal, v)) == c)
            if tight < n:
                return f"extreme point {v} lies on only {tight} facets"
        return None

    def closed_forms(self, run_cli, rng: random.Random) -> list[str]:
        """Criteria 1-2: pure powers give the divisor series, the diagonal
        ideal (x1^l1, x2^l2) gives l1 l2 X1 X2 / ((1 + l1 X1)(1 + l2 X2))."""
        errors = []
        for _ in range(3):
            ell, ambient = rng.randint(1, 6), rng.randint(2, 5)
            res = run_cli(["segre", f"x1^{ell}", "--n", "2", "--ambient", str(ambient)])
            got = json.loads(res.stdout)["pushforward"] if res.status == "ok" else None
            want = [str(Fraction(ell) * (-ell) ** (k - 1)) for k in range(1, ambient + 1)]
            if got != want:
                errors.append(f"pure power x1^{ell}: {got} != {want}")
        for _ in range(3):
            l1, l2, ambient = rng.randint(1, 4), rng.randint(1, 4), rng.randint(2, 5)
            res = run_cli(["segre", f"x1^{l1},x2^{l2}", "--ambient", str(ambient)])
            got = json.loads(res.stdout)["multivariate"] if res.status == "ok" else None
            want = [{"exp": [i + 1, j + 1],
                     "coeff": str(l1 * l2 * (-l1) ** i * (-l2) ** j)}
                    for d in range(ambient - 1) for i in range(d + 1)
                    for j in [d - i]]
            want.sort(key=lambda t: (sum(t["exp"]), t["exp"]))
            if got != want:
                errors.append(f"diagonal ({l1},{l2}) at ambient {ambient}")
        return errors

    # ---- threshold-queries ----------------------------------------------

    def _lct(self, job, res) -> str | None:
        """m >= prod(a) * lct must decide membership of a/m in the region."""
        ns = self.ns
        payload = json.loads(res.stdout)
        lct, sigma = Fraction(payload["lct"]), Fraction(payload["sigma"])
        if lct * sigma != 1:
            return "lct and sigma are not reciprocal"
        gens = tuple(map(tuple, job.info["gens"]))
        a, m = job.info["a"], job.info["m"]
        if gens not in self.polyhedra:
            self.polyhedra[gens] = ns.newton_polyhedron(ns.make_ideal(len(a), gens))
        member = ns.in_newton_region(self.polyhedra[gens], [Fraction(x, m) for x in a])
        if (math.prod(a) * lct <= m) != member:
            return f"threshold decision disagrees with the region at a={a}, m={m}"
        return None

    # ---- lattice-sums -----------------------------------------------------

    def _estimate(self, job, res) -> str | None:
        if "--m-list" in job.argv:
            return self._m_list(job, res)
        payload = json.loads(res.stdout)
        est, exact = float(payload["estimate"]), float(payload["exact"])
        # The sum samples the decreasing kernel at the far corner of each
        # unit cell inside the down-closed region, so it never exceeds the
        # integral; truncation only lowers it further.
        if not 0 < est <= exact * (1 + EXACT_FLOAT_REL_TOL):
            return f"estimate {est} outside (0, exact={exact}]"
        if "estimate_rational" in payload:
            ns = self.ns
            ideal = ns.make_ideal(len(job.info["X"]), job.info["gens"])
            cfg = ns.EstimatorConfig(m=job.info["m"],
                                     X=tuple(Fraction(x) for x in job.info["X"]))
            as_float = float(ns.estimate(ideal, cfg))
            rational = float(Fraction(payload["estimate_rational"]))
            if abs(rational - as_float) > EXACT_FLOAT_REL_TOL * abs(as_float):
                return f"exact {rational!r} and float {as_float!r} estimates disagree"
        return None

    def _m_list(self, job, res) -> str | None:
        rows = list(csv.DictReader(io.StringIO(res.stdout)))
        if [int(r["m"]) for r in rows] != job.info["m_list"]:
            return "m-list rows do not match the request"
        errors = []
        for r in rows:
            est, exact = float(r["estimate"]), float(r["exact"])
            if not 0 < est <= exact * (1 + EXACT_FLOAT_REL_TOL):
                return f"estimate {est} outside (0, exact={exact}] at m={r['m']}"
            errors.append(exact - est)
        if any(b >= a for a, b in zip(errors, errors[1:])):
            return f"error does not shrink with m: {errors}"
        return None

    def _verify(self, job, res) -> str | None:
        (row,) = list(csv.DictReader(io.StringIO(res.stdout)))
        value, target = float(row["value"]), float(row["target"])
        kind = job.info["identity"]
        if kind == "power":
            ok = abs(value - target) < POWER_ABS_TOL
        else:
            tol = TWO_VAR_REL_TOL if kind == "two-var" else DIAGONAL_REL_TOL
            ok = abs(value - target) / abs(target) < tol
        return None if ok else f"{kind} identity off target: {value} vs {target}"


def estimate_rel_errors(job, res) -> list[float]:
    """|estimate - exact| / exact for every estimate an estimate job printed."""
    if res.status != "ok" or job.argv[0] != "estimate":
        return []
    if "--m-list" in job.argv:
        rows = csv.DictReader(io.StringIO(res.stdout))
        return [float(r["abs_error"]) / float(r["exact"]) for r in rows]
    payload = json.loads(res.stdout)
    return [float(payload["abs_error"]) / float(payload["exact"])]


def exact_output(job, res) -> str:
    """The exact part of a job's output, for the cross-commit digest.

    Geometry and threshold outputs are exact throughout. Estimator and
    identity outputs carry floats and timings that may legitimately change,
    so only their exact fields and the failure class enter the digest.
    """
    if res.status != "ok":
        return f"{job.argv[0]} {res.status}"
    if job.argv[0] in ("segre", "diagram", "lct"):
        return res.stdout
    if job.argv[0] == "estimate" and "--m-list" not in job.argv:
        payload = json.loads(res.stdout)
        keys = ("m", "exact", "estimate_rational")
        return json.dumps({k: payload[k] for k in keys if k in payload})
    rows = csv.DictReader(io.StringIO(res.stdout))
    last = "exact" if job.argv[0] == "estimate" else "target"
    return ";".join(f"{r['m']},{r[last]}" for r in rows)
