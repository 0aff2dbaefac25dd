#!/usr/bin/env python3
"""End-to-end benchmark of the thsr product paths (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload viewshed|serve|stream --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py --all [--seed N] [--seconds S]   # all three workloads
  python3 perfbench/run.py --selftest                       # tiny sizes, checks output

Builds the benchmark (library sources from src/ plus perfbench/src/) with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
then runs it. The last line of standard output is the run's JSON summary;
build logs go to standard error. Exits non-zero, printing no summary, when
the build or the run fails.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("viewshed", "serve", "stream")
RUN_TIMEOUT_S = 170

# The end-to-end metrics by the names a reader of the report uses: each
# workload's generic ops_per_s / p50_ms / tail_ms / peak_rss_mb under the
# name of what it counts, plus failed_ratio and the total set-up time.
NAMED_E2E = (
    "setup_s",
    "viewshed.maps_per_s", "viewshed.p50_ms", "viewshed.p90_ms",
    "viewshed.peak_rss_mb", "viewshed.failed_ratio",
    "serve.qps", "serve.p50_ms", "serve.p99_ms", "serve.peak_rss_mb",
    "serve.failed_ratio",
    "stream.mcells_per_s", "stream.peak_rss_mb", "stream.failed_ratio",
)
REPORT_LINE = re.compile(r"^\s+(\S+)\s+(-?[0-9.]+(?:e[-+]?[0-9]+)?)\s+(\S+)")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build; returns the benchmark executable."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: library sources (src/) not found next to perfbench/")
        sys.exit(1)
    bdir = os.path.join(build_root(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed:", " ".join(cmd))
            sys.exit(1)
    return os.path.join(bdir, "thsr_perfbench")


def run_once(exe, workload, seed, seconds, trace, quick=False, echo=True):
    """Run one workload; returns (report lines, summary dict) or exits."""
    work_dir = os.path.join(build_root(), "run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--work-dir", work_dir]
    if quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
        sys.exit(1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: {workload} exited with {proc.returncode}")
        sys.exit(1)
    summary = json.loads(lines[-1])
    if echo:
        print("\n".join(lines[:-1]), flush=True)
    return lines[:-1], summary


def named_metrics(report):
    """Report lines of the form '  name value unit ...' as {name: (v, unit)}."""
    out = {}
    for line in report:
        m = REPORT_LINE.match(line)
        if m:
            out[m.group(1)] = (float(m.group(2)), m.group(3))
    return out


def run_all(exe, seed, seconds):
    """All three workloads untraced; prints the named end-to-end metrics."""
    named, total_setup, ok = {}, 0.0, True
    for w in WORKLOADS:
        report, summary = run_once(exe, w, seed, seconds, 0)
        named.update(named_metrics(report))
        total_setup += summary["metrics"]["setup_s"]["value"]
        ok = ok and summary["correct"] and summary["failed"] == 0
    named["setup_s"] = (total_setup, "s")
    print("end-to-end metrics (all workloads):")
    for name in NAMED_E2E:
        value, unit = named[name]
        print(f"  {name:<28} {value:14.4f} {unit}")
    print(json.dumps({"correct": ok, "metrics": {
        n: {"value": named[n][0], "unit": named[n][1]} for n in NAMED_E2E}}))
    return 0 if ok else 1


def selftest(exe):
    """Tiny sizes: every named metric printed with its unit, summaries parse,
    failed_ratio is 0."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    named = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            report, summary = run_once(exe, w, 1, 0.5, trace, quick=True, echo=False)
            tag = f"{w} --trace {trace}"
            if set(summary) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: summary keys {sorted(summary)}")
            if not summary.get("correct") or summary.get("failed") != 0:
                problems.append(f"{tag}: failed {summary.get('failed')} of "
                                f"{summary.get('attempted')}")
            got = {k: v["unit"] for k, v in summary["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
            for k, v in summary["metrics"].items():
                if not math.isfinite(v["value"]):
                    problems.append(f"{tag}: {k} is not finite")
            if trace == 0:
                named.update(named_metrics(report))
    for name in NAMED_E2E:
        if name != "setup_s" and name not in named:
            problems.append(f"report lacks {name}")
        if name.endswith("failed_ratio") and named.get(name, (1,))[0] != 0:
            problems.append(f"{name} is {named[name][0]}")
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not (args.workload or args.all or args.selftest):
        ap.error("one of --workload, --all, --selftest is required")
    exe = build()
    if args.selftest:
        return selftest(exe)
    if args.all:
        return run_all(exe, args.seed, args.seconds)
    _, summary = run_once(exe, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
