#!/usr/bin/env python3
"""Steadiness report: run each workload N times with different seeds and
print, per metric, the median, quartiles and relative spread.

  python3 perfbench/steadiness.py --runs 10 [--workload serve ...]
      [--seconds 20] [--trace 0|1] [--seed-base 1]

Spread is the distance between the first and third quartile (Python's
statistics.quantiles(values, n=4)) as a share of the median. An end-to-end
metric is flagged when its spread exceeds a tenth, or a third of its bound
in BENCHMARK.json. Exits 1 when any end-to-end metric other than setup_s is
flagged, or when a run reports failed operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=("viewshed", "serve", "stream"))
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    flagged, failures = [], 0
    for w in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.seed_base + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace",
                 str(args.trace)], stdout=subprocess.PIPE, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: run failed ({proc.returncode})")
                failures += 1
                continue
            summary = json.loads(proc.stdout.splitlines()[-1])
            failures += summary["failed"] > 0
            for name, m in summary["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(summary["metrics"].items())
                if k in bounds or args.trace), flush=True)
        print(f"\n{w}: {args.runs} runs of {seconds:g} s, trace {args.trace}")
        print(f"  {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in sorted(values.items()):
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and (spread > 0.1 or spread > bound / 3):
                flag = "  <-- not steady"
                if name != "setup_s":
                    flagged.append(f"{w}/{name}")
            print(f"  {name:<28} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
                  f"{bound if bound is not None else '':>6}{flag}")
        print(flush=True)
    if flagged:
        print("not steady:", ", ".join(flagged))
    if failures:
        print(f"{failures} run(s) failed or reported failed operations")
    return 1 if flagged or failures else 0


if __name__ == "__main__":
    sys.exit(main())
