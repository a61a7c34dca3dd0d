#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/sweep.py --seeds 1-10 --seconds 30 [--workload NAME ...]
                           [--trace 0|1] [--out bench/results/sweep.json]

For every workload and metric it reports the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (q3 - q1) / median, next to
the metric's bound from BENCHMARK.json, plus the exact-output digests and
input properties of every run. Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("exact-output digest"):
            result["digest"] = line.split()[3]
        elif line.startswith("properties "):
            result["properties"] = json.loads(line[len("properties "):])
        elif line.startswith("context "):
            result["context"] = json.loads(line[len("context "):])
    return result


def summarize(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": bounds.get(name),
            "values": values,
        }
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    for workload in args.workload or names:
        runs = []
        for seed in seed_range(args.seeds):
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1]['metrics'])}",
                  file=sys.stderr)
        report[workload] = {
            "seeds": seed_range(args.seeds),
            "all_correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": summarize(runs, bounds),
            "digests": [r.get("digest") for r in runs],
            "properties": [r.get("properties") for r in runs],
        }
        context = runs[-1].get("context")
    text = json.dumps({"context": context, "seconds": args.seconds,
                       "trace": args.trace, "workloads": report}, indent=1)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    for workload, entry in report.items():
        for name, m in entry["metrics"].items():
            flag = "" if m["bound"] is None or m["spread"] <= m["bound"] / 3 else "  <-- wide"
            print(f"{workload:18s} {name:16s} median {m['median']:12.6g} {m['unit']:6s} "
                  f"spread {m['spread']:.4f} bound {m['bound']}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
