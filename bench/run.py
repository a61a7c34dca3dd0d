#!/usr/bin/env python3
"""newton-segre benchmark: a closed loop of CLI jobs, one workload per run.

    python3 bench/run.py --workload exact-geometry --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. One client with no threads sends seeded
jobs one after another; each job calls ``newton_segre.cli.main(argv)`` in
this process with stdout and stderr captured, so argument parsing and
serialization are timed with the work. Every job starts with the package's
caches cleared, as a fresh CLI process would. Each output is checked outside
the timed region.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics: setup_s, jobs_per_s, job_p50_ms, job_tail_ms,
peak_rss_mib and ok_ratio (1 - fail_ratio; a job fails on exit code 2, an
uncaught exception or MemoryError). Job times are rescaled to a nominal
machine speed, see REFERENCE_* below. With ``--trace 1`` the jobs of the
first half of the window are run again with every public function of the
package wrapped in spans (see tracing.py), and the JSON carries the
per-layer metrics. Lines before the JSON are a human-readable report: raw
times, fail_ratio by failure class, est_rel_err_max on lattice-sums, the
exact-output digest, input properties and the run's context.

Workloads (see workloads.py): exact-geometry, lattice-sums,
threshold-queries.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "newton_segre"

# The address-space cap turns a runaway allocation into a MemoryError
# instead of exhausting the machine; the heaviest job stays far below it.
ADDRESS_SPACE_BYTES = 3 << 30
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # the tail is the slowest job with this many slower ones

# On a shared cloud VM (2 vCPUs, Intel Xeon) the speed of pure-Python code
# swings by up to 1.7x over seconds to minutes, which moves raw run medians
# by more than any bound worth setting. Between jobs (outside their timers)
# the benchmark times a fixed reference kernel, at most every
# REFERENCE_EVERY_S, and reports each job's time scaled to the speed at
# which that kernel takes REFERENCE_NOMINAL_S, using the trimmed mean of the
# reference timings from REFERENCE_WINDOW_S before the job to
# REFERENCE_WINDOW_S after it. Raw times are printed in the report as well.
REFERENCE_EVERY_S = 0.1
REFERENCE_NOMINAL_S = 0.003
REFERENCE_WINDOW_S = 3.0
REFERENCE_TRIM = 0.1  # share of timings dropped at each end


@dataclass
class JobResult:
    status: str  # ok | exit2 | exception | memory
    start: float
    seconds: float
    stdout: str
    stderr: str
    error: str | None = None


def reference_kernel() -> Fraction:
    """Exact elimination on small Fraction matrices: the kind of work the
    package's geometry layers do, in code the package cannot change."""
    rng = random.Random(7)
    total = Fraction(0)
    for _ in range(4):
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(6)]
             for _ in range(5)]
        for c in range(5):
            p = next((i for i in range(c, 5) if m[i][c] != 0), None)
            if p is None:
                continue
            m[c], m[p] = m[p], m[c]
            m[c] = [x / m[c][c] for x in m[c]]
            for i in range(5):
                if i != c and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        total += m[0][5]
    return total


class SpeedProbe:
    """Timings of the reference kernel, taken between jobs."""

    def __init__(self):
        self.stamps: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.stamps.append(start)
        self.durations.append(end - start)

    def maybe_sample(self) -> None:
        if not self.stamps or time.perf_counter() - self.stamps[-1] >= REFERENCE_EVERY_S:
            self.sample()

    def normalize(self, seconds: float, at: float) -> float:
        """`seconds` measured from time `at`, rescaled to the nominal speed."""
        lo = bisect.bisect_left(self.stamps, at - REFERENCE_WINDOW_S)
        hi = bisect.bisect_right(self.stamps, at + seconds + REFERENCE_WINDOW_S)
        near = sorted(self.durations[lo:hi] or self.durations)
        cut = int(len(near) * REFERENCE_TRIM)
        local = statistics.fmean(near[cut:len(near) - cut])
        return seconds * REFERENCE_NOMINAL_S / local


class Runner:
    """Runs CLI jobs in-process and classifies how each one ended."""

    def __init__(self, ns):
        self.cli = sys.modules[f"{PACKAGE}.cli"]
        self.caches = {c.__qualname__: c for c in tracing.lru_caches(ns)}

    def __call__(self, argv) -> JobResult:
        for cache in self.caches.values():
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        status, error = "ok", None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
            except MemoryError as exc:
                code, status, error = None, "memory", type(exc).__name__
            except Exception as exc:  # an uncaught error is a failed job
                code, status, error = None, "exception", f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        if status == "ok" and code != 0:
            status, error = "exit2", f"exit code {code}"
        return JobResult(status, start, elapsed, out.getvalue(), err.getvalue(), error)


def fresh_import():
    """Import the package afresh; numpy stays loaded after the first time."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(f"{PACKAGE}.cli")
    return importlib.import_module(PACKAGE)


def setup(workload: str, seed: int, probe: SpeedProbe):
    """Import, input generation and warm-up, repeated.

    Returns the (start, seconds) of each repetition and the last one's
    package, job pool and runner.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        probe.sample()
        start = time.perf_counter()
        ns = fresh_import()
        pool = workloads.build_pool(workload, seed)
        runner = Runner(ns)
        for argv in workloads.WARMUP[workload]:
            res = runner(argv)
            if res.status != "ok":
                raise RuntimeError(f"warm-up job {argv} failed: {res.error}")
        times.append((start, time.perf_counter() - start))
    probe.sample()
    return times, ns, pool, runner


def run_window(runner, probe, pool, seconds: float, min_jobs: int, on_result):
    """Closed loop: the next job starts when the previous one is done.

    Runs whole rounds, cycling through the pool, until the jobs' own time
    reaches `seconds` and at least `min_jobs` have run, so every run has
    the same mix of job kinds. Checks happen between jobs and are not
    counted. Returns the jobs run and their results.
    """
    ran, results = [], []
    busy = 0.0
    for jobs in itertools.cycle(pool):
        for job in jobs:
            probe.maybe_sample()
            res = runner(job.argv)
            busy += res.seconds
            on_result(len(results), job, res)
            ran.append(job)
            results.append(res)
        if busy >= seconds and len(results) >= min_jobs:
            probe.sample()
            return ran, results


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def job_tail(times):
    """(time, percentile): the slowest job with TAIL_BEYOND slower ones."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(times, round_size, setup_s, failed):
    """jobs_per_s is the median over rounds of the round's jobs per second:
    rounds have one composition, so each is a sample of the same mix."""
    tail, pct = job_tail(times)
    rounds = [times[i:i + round_size] for i in range(0, len(times), round_size)]
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (statistics.median(len(r) / sum(r) for r in rounds), "1/s"),
        "job_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "job_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "ok_ratio": ((len(times) - failed) / len(times), "ratio"),
    }, pct


def per_layer(tracer, overhead_ratio, rel_errors):
    s, calls, counters = tracer.self_s, tracer.calls, tracer.counters

    def total(*names):
        return sum(s[n] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    def hit_ratio(cache):
        hits, misses = tracer.cache_hits[cache], tracer.cache_misses[cache]
        return ratio(hits, hits + misses)

    linalg = [n for n in calls if n.startswith("linalg.")]
    subsets = tracer.pair_calls[("cones.cone_facets", "linalg.kernel_basis")]
    estimate_self = s["lattice.estimate"]
    metrics = {
        "cones.facets.calls": (calls["cones.cone_facets"], "count"),
        "cones.facets.self_s": (s["cones.cone_facets"], "s"),
        "cones.facets.subsets": (subsets, "count"),
        "cones.facets.yield": (ratio(counters["facets"], subsets), "ratio"),
        "cones.triangulate.self_s": (s["cones.pull_triangulation"], "s"),
        "linalg.calls": (sum(calls[n] for n in linalg), "count"),
        "linalg.self_s": (total(*linalg), "s"),
        "simplex.lp.calls": (calls["simplex.solve_lp"], "count"),
        "simplex.lp.self_s": (total("simplex.solve_lp", "simplex.feasible"), "s"),
        "polyhedron.build.calls": (tracer.cache_misses["newton_polyhedron"], "count"),
        "polyhedron.build.self_s": (s["polyhedron.newton_polyhedron"], "s"),
        "polyhedron.cache_hit_ratio": (hit_ratio("newton_polyhedron"), "ratio"),
        "lct.diag_exit.calls": (calls["lct.diagonal_exit"], "count"),
        "lct.diag_exit.self_s": (s["lct.diagonal_exit"], "s"),
        "lct.cache_hit_ratio": (hit_ratio("lct"), "ratio"),
        "ideals.parse.self_s": (s["ideals.parse_ideal"], "s"),
        "ideals.make.self_s": (total("ideals.make_ideal", "ideals.stretch"), "s"),
        "decompose.pieces": (counters["pieces"], "count"),
        "decompose.self_s": (total("decompose.cone_decomposition",
                                   "decompose.make_piece"), "s"),
        "series.mul.calls": (calls["series.mul"], "count"),
        "series.mul.self_s": (s["series.mul"], "s"),
        "series.inverse.calls": (calls["series.inverse"], "count"),
        "series.inverse.self_s": (s["series.inverse"], "s"),
        "series.terms": (counters["series_terms"], "count"),
        "segre.integrate.self_s": (s["segre.integrate_piece"], "s"),
        "segre.evaluate.self_s": (total("segre.evaluate", "segre.piece_value"), "s"),
        "lattice.estimate.calls": (calls["lattice.estimate"], "count"),
        "lattice.estimate.self_s": (estimate_self, "s"),
        "lattice.box_points": (counters["box_points"], "count"),
        "lattice.member_ratio": (ratio(counters["members"], counters["box_points"]), "ratio"),
        "lattice.points_per_s": (ratio(counters["box_points"], estimate_self), "1/s"),
        "lattice.est_rel_err_max": (max(rel_errors, default=0.0), "ratio"),
        "polygamma.calls": (calls["polygamma.polygamma"], "count"),
        "polygamma.elements": (counters["polygamma_elements"], "count"),
        "polygamma.self_s": (total("polygamma.polygamma", "polygamma.sum_inverse_cubes",
                                   "polygamma.bernoulli"), "s"),
        "polygamma.verify.self_s": (total("polygamma.verify_power_identity",
                                          "polygamma.verify_two_variable_identity",
                                          "polygamma.verify_diagonal_identity"), "s"),
        "cli.self_s": (s["cli.main"], "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
    return metrics


def _count_facets(counters, args, result):
    counters["facets"] += len(result)


def _count_pieces(counters, args, result):
    counters["pieces"] += len(result)


def _count_series(counters, args, result):
    left, right = args
    counters["series_terms"] += len(left.coeffs) * len(getattr(right, "coeffs", (0,)))


def _count_polygamma(counters, args, result):
    counters["polygamma_elements"] += getattr(args[1], "size", 1)


def _count_mask(counters, args, result):
    counters["box_points"] += result.size
    counters["members"] += int(result.sum())


COUNTERS = {
    "cones.cone_facets": _count_facets,
    "decompose.cone_decomposition": _count_pieces,
    "series.mul": _count_series,
    "polygamma.polygamma": _count_polygamma,
}
HOOKS = [("lattice", "_member_mask", _count_mask)]


# ---------------------------------------------------------------------------
# recorded context
# ---------------------------------------------------------------------------

def context() -> dict:
    import numpy

    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    lines = {p.stem: sum(1 for _ in p.open(encoding="utf-8"))
             for p in sorted((SRC / PACKAGE).glob("*.py"))}
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": sum(lines.values()),
        "src_lines_per_module": lines,
    }


def properties(workload, ran, results) -> dict:
    """Input properties that later performance claims must cite."""
    kinds = {}
    for job, res in zip(ran, results):
        kinds.setdefault(job.kind, []).append(res.seconds * 1e3)
    props = {"jobs_by_kind": {k: len(v) for k, v in sorted(kinds.items())},
             "median_ms_by_kind": {k: round(statistics.median(v), 3)
                                   for k, v in sorted(kinds.items())}}
    if workload == "exact-geometry":
        facets, pieces = [], []
        for job, res in zip(ran, results):
            if res.status != "ok":
                continue
            payload = json.loads(res.stdout)
            if job.argv[0] == "diagram":
                facets.append(sum(f["diagram"] for f in payload["facets"]))
            else:
                pieces.append(payload["pieces"])
        props["diagram_facets_per_job"] = statistics.fmean(facets) if facets else 0
        props["pieces_per_segre_job"] = statistics.fmean(pieces) if pieces else 0
        props["max_pieces"] = max(pieces, default=0)
        props["share_not_m_primary"] = statistics.fmean(
            not workloads.is_m_primary(job.info["gens"]) for job in ran)
    elif workload == "lattice-sums":
        est = [job for job in ran if job.argv[0] == "estimate" and "unbounded" in job.info]
        props["share_estimates_unbounded_axis"] = (
            statistics.fmean(job.info["unbounded"] for job in est) if est else 0)
    else:
        sizes = [job.info["stretch_product"] for job in ran]
        props["stretch_product_median"] = statistics.median(sizes)
        props["stretch_product_max"] = max(sizes)
        props["max_stretched_exponent"] = max(
            int(tok.split("^")[1]) for job in ran
            for tok in job.argv[1].replace("*", ",").split(",") if "^" in tok)
    return props


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def limit_address_space() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_BYTES if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_BYTES)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: {SRC / PACKAGE} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    # measure the default single-threaded path with one BLAS thread
    os.environ.pop("NEWTON_SEGRE_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    limit_address_space()
    sys.path.insert(0, str(SRC))

    probe = SpeedProbe()
    setup_times, ns, pool, runner = setup(args.workload, args.seed, probe)
    gc.collect()
    gc.freeze()  # set-up objects are never garbage; keep collections short

    checker = checks.Checker(ns)
    min_jobs = workloads.DIGEST_JOBS[args.workload]
    problems: list[str] = []
    outputs: list[str] = []
    rel_errors: list[float] = []

    def on_result(i, job, res):
        error = checker.check(job, res)
        if error is not None:
            problems.append(f"job {i} {job.kind} {job.argv}: {error}")
        outputs.append(checks.exact_output(job, res))
        rel_errors.extend(checks.estimate_rel_errors(job, res))

    window = args.seconds / 2 if args.trace else args.seconds
    ran, results = run_window(runner, probe, pool, window, min_jobs, on_result)
    normalized = [probe.normalize(r.seconds, r.start) for r in results]
    if args.workload == "exact-geometry":
        rng = random.Random(f"closed-forms:{args.seed}")
        problems.extend(checker.closed_forms(runner, rng))

    report = [f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}: {len(results)} jobs, one client, closed loop"]
    failed = sum(r.status != "ok" for r in results)
    by_status = {s: sum(r.status == s for r in results) for s in checks.FAILURES}

    if args.trace:
        tracer = tracing.Tracer(ns)
        tracer.install(COUNTERS, HOOKS)
        traced = []
        traced_errors: list[float] = []
        try:
            for i, job in enumerate(ran):
                tracer.job_id = i
                probe.maybe_sample()
                res = runner(job.argv)
                tracer.record_caches(runner.caches)
                traced.append(res)
        finally:
            tracer.uninstall()
        probe.sample()
        overhead = (sum(probe.normalize(r.seconds, r.start) for r in traced)
                    / sum(normalized))
        for i, (job, res) in enumerate(zip(ran, traced)):
            if checks.exact_output(job, res) != outputs[i]:
                problems.append(f"job {i} {job.kind}: traced output differs")
            traced_errors.extend(checks.estimate_rel_errors(job, res))
        metrics = per_layer(tracer, overhead, traced_errors)
        tracer.write_spans(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.npz")
        report.append(f"spans recorded {len(tracer.span_start)}, dropped "
                      f"{tracer.spans_dropped}; self time by function:")
        for name in sorted(tracer.calls, key=lambda n: -tracer.self_s[n]):
            report.append(f"  {name:44s} calls {tracer.calls[name]:>9d}  "
                          f"self {tracer.self_s[name]:10.4f} s")
    else:
        setup_s = statistics.median(probe.normalize(t, at) for at, t in setup_times)
        round_size = len(pool[0])
        metrics, pct = end_to_end(normalized, round_size, setup_s, failed)
        raw, _ = end_to_end([r.seconds for r in results], round_size,
                            statistics.median(t for _, t in setup_times), failed)
        report.append(f"job_tail_ms is p{pct:.1f} of {len(results)} jobs "
                      f"({TAIL_BEYOND} slower)")
        report.append("raw (not normalized): " + ", ".join(
            f"{k} {v:.6g} {u}" for k, (v, u) in raw.items() if u in ("s", "ms", "1/s")))
        report.append(f"reference kernel: {len(probe.durations)} timings, median "
                      f"{statistics.median(probe.durations) * 1e3:.4f} ms, quartiles "
                      + ", ".join(f"{q * 1e3:.4f}" for q in
                                  statistics.quantiles(probe.durations, n=4)))
        report.append(f"fail_ratio {failed / len(results):.6f} ({failed}/{len(results)}; "
                      + ", ".join(f"{k} {v}" for k, v in by_status.items()) + ")")
        if args.workload == "lattice-sums":
            report.append(f"est_rel_err_max {max(rel_errors, default=0.0):.6g} ratio "
                          f"over {len(rel_errors)} estimates")
        report.append("setup runs, raw (s): " + ", ".join(f"{t:.4f}" for _, t in setup_times))

    digest = hashlib.sha256("\n".join(outputs[:min_jobs]).encode()).hexdigest()
    report.append(f"exact-output digest sha256 {digest} over the first {min_jobs} jobs")
    report.append("properties " + json.dumps(properties(args.workload, ran, results)))
    report.append("context " + json.dumps(context()))
    for name, (value, unit) in metrics.items():
        report.append(f"{name} {value:.6g} {unit}")
    for line in problems[:20]:
        report.append("CHECK FAILED " + line)
    print("\n".join(report))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
