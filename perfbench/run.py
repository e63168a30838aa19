#!/usr/bin/env python3
"""Builds varstream_perfbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload wire-bulk --seed 1 --seconds 10 --trace 0

The last line of stdout is the run's JSON result. Build output goes to
stderr. The build lives in $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench).

Steadiness self-check: run workloads repeatedly and print each metric's
median and quartile spread; msgs_per_v must repeat exactly when the seed
does.

    python3 perfbench/run.py --selfcheck --runs 5 [--workloads a,b]
        [--seconds 10] [--seed 1] [--vary-seeds]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ingest-local", "wire-bulk", "wire-small", "wire-reads", "tree"]


def benchmark_workloads():
    """The workloads BENCHMARK.json declares (ingest-local is left out there)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(base, "perfbench")


def build():
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        code = subprocess.call(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr)
        if code != 0:
            return None
    code = subprocess.call(
        ["cmake", "--build", out, "-j4", "--target", "varstream_perfbench"],
        stdout=sys.stderr)
    if code != 0:
        return None
    return os.path.join(out, "varstream_perfbench")


def run_once(binary, workload, seed, seconds, trace, capture):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(build_dir(), "work")]
    if not capture:
        return subprocess.call(cmd), None
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return proc.returncode, result


def selfcheck(binary, args):
    workloads = (args.workloads.split(",") if args.workloads
                 else benchmark_workloads())
    ok = True
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.seed + i if args.vary_seeds else args.seed
            code, result = run_once(binary, workload, seed, args.seconds, 0, True)
            if code != 0 or result is None or not result["correct"] or result["failed"]:
                print(f"{workload}: run {i} (seed {seed}) failed: exit {code}, {result}")
                ok = False
                continue
            runs.append(result)
        if not runs:
            continue
        print(f"{workload}: {len(runs)} runs, seeds "
              f"{'varied' if args.vary_seeds else 'fixed at %d' % args.seed}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / median if median else float("inf")
            line = (f"  {name:14s} median {median:14.6g} {unit:6s} "
                    f"q1 {q1:14.6g} q3 {q3:14.6g} spread {100 * spread:6.2f}%")
            if name == "msgs_per_v" and not args.vary_seeds:
                same = len(set(values)) == 1
                line += "  equal across runs" if same else "  DIFFERS ACROSS RUNS"
                ok = ok and same
            print(line, flush=True)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--vary-seeds", action="store_true")
    args = parser.parse_args()
    if not args.selfcheck and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selfcheck:
        return selfcheck(binary, args)
    code, _ = run_once(binary, args.workload, args.seed, args.seconds, args.trace,
                       False)
    return code


if __name__ == "__main__":
    sys.exit(main())
