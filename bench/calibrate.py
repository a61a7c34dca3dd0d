#!/usr/bin/env python3
"""Re-measure the ROADMAP hot spots, with their spread over repeats.

    python3 bench/calibrate.py [--repeats 10] [--out bench/results/calibration.json]

Each case is timed `repeats` times in this process with the package caches
cleared before every repeat. The report gives min, median, max and
max/min for each case next to the figure the ROADMAP recorded, and the
time the ROADMAP's 3-D out-of-memory input takes to fail under the
benchmark's address-space cap.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import run
import tracing
import workloads

# Two n=5 ideals with 6 generators: a staircase like the exact-geometry
# n=5 jobs, and a random one from the test suite's generator (34 pieces),
# the kind the ROADMAP figure of 3.8 s was taken on.
N5_STAIRCASE = [(2, 0, 0, 0, 0), (0, 2, 0, 0, 0), (0, 0, 3, 0, 0), (0, 0, 0, 3, 0),
                (1, 0, 1, 1, 1), (0, 1, 1, 0, 2)]
N5_RANDOM = [(0, 2, 2, 3, 3), (0, 2, 4, 4, 1), (1, 0, 4, 2, 0), (2, 1, 1, 1, 4),
             (2, 2, 0, 4, 4), (4, 1, 1, 1, 1)]


def cases(ns):
    """(name, ROADMAP figure in seconds, calls per repeat, callable)."""
    lct_mod = sys.modules["newton_segre.lct"]
    n5_staircase = ns.make_ideal(5, N5_STAIRCASE)
    n5_random = ns.make_ideal(5, N5_RANDOM)
    diag = ns.make_ideal(2, [(2, 0), (0, 3)])
    tri = ns.make_ideal(3, [(2, 0, 0), (0, 2, 0), (0, 0, 2)])
    X2 = (Fraction(1, 3), Fraction(1, 2))
    X3 = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    rng = random.Random(8)
    points = []
    for gens in workloads.CRITERION_8_IDEALS:
        ideal = ns.make_ideal(2, gens)
        for m in (250, 500):
            for _ in range(50):
                points.append((ideal, (rng.randint(2, 2 * m), rng.randint(2, 3 * m)), m))

    def lct_based_calls():
        for ideal, a, m in points:
            lct_mod.lct.cache_clear()
            ns.newton_polyhedron.cache_clear()
            lct_mod.region_condition_via_lct(ideal, a, m)

    return [
        ("segre_class n=5 staircase, 6 generators, ambient 5", 3.8, 1,
         lambda: ns.segre_class(n5_staircase, ambient_dim=5)),
        ("segre_class n=5 random, 6 generators, ambient 5", 3.8, 1,
         lambda: ns.segre_class(n5_random, ambient_dim=5)),
        ("2-D float estimate (x1^2,x2^3) m=3000", 1.07, 1,
         lambda: ns.estimate(diag, ns.EstimatorConfig(m=3000, X=X2))),
        ("3-D float estimate (x1^2,x2^2,x3^2) m=200", 3.5, 1,
         lambda: ns.estimate(tri, ns.EstimatorConfig(m=200, X=X3))),
        ("lct_based membership call, criterion-8 sizes", 0.008, len(points),
         lct_based_calls),
    ]


def time_case(fn, caches, repeats, per_call):
    times = []
    for _ in range(repeats):
        for cache in caches:
            cache.cache_clear()
        start = time.perf_counter()
        fn()
        times.append((time.perf_counter() - start) / per_call)
    return times


def memory_defect(ns) -> dict:
    """Time until the 9.66 GiB request fails, polyhedron already built."""
    gens, m, X = workloads.MEMORY_DEFECT
    ideal = ns.make_ideal(len(X), gens)
    ns.newton_polyhedron(ideal)
    start = time.perf_counter()
    try:
        ns.estimate(ideal, ns.EstimatorConfig(m=m, X=X))
        outcome = "no error"
    except MemoryError as exc:
        outcome = type(exc).__name__
    return {"outcome": outcome, "estimate_ms": (time.perf_counter() - start) * 1e3}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    os.environ.pop("NEWTON_SEGRE_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    run.limit_address_space()
    sys.path.insert(0, str(run.SRC))
    ns = run.fresh_import()
    caches = tracing.lru_caches(ns)

    rows = []
    for name, roadmap_s, per_call, fn in cases(ns):
        fn()  # warm-up
        times = time_case(fn, caches, args.repeats, per_call)
        rows.append({"case": name, "roadmap_s": roadmap_s,
                     "min_s": min(times), "median_s": statistics.median(times),
                     "max_s": max(times), "max_over_min": max(times) / min(times),
                     "repeats": args.repeats})
        print(f"{name:52s} roadmap {roadmap_s:7.3f} s  median "
              f"{rows[-1]['median_s']:8.4f} s  range {min(times):.4f}-{max(times):.4f} s",
              file=sys.stderr)
    probe = run.SpeedProbe()
    for _ in range(50):
        probe.sample()
    report = {"context": run.context(), "cases": rows,
              "memory_defect_under_cap": memory_defect(ns),
              "reference_kernel_median_s": statistics.median(probe.durations)}
    text = json.dumps(report, indent=1)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
