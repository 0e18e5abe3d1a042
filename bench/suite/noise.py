#!/usr/bin/env python3
"""Repeat gee-suite runs and report each end-to-end metric's spread.

Runs every workload --runs times (seed = --seed-base + run index, runs
interleaved across workloads so machine drift lands on all of them), then
prints, per workload and metric, the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json. A spread
above a third of its bound is flagged.

With --baseline-dir, each run is also written as one gee-bench-v1 file
(BENCH_suite.runN.json, one case per workload) that tools/bench_diff.py
reads.

Run from the repository root:

  python3 bench/suite/noise.py --runs 10
  python3 bench/suite/noise.py --runs 5 --baseline-dir bench/suite/baselines
"""

import argparse
import json
import os
import socket
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = ["bash", "bench/suite/run.sh", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        print(f"warning: {workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}")
    return result


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def write_baseline(path, run, seed, seconds, results, sha):
    nproc = len(os.sched_getaffinity(0))
    doc = {
        "schema": "gee-bench-v1",
        "bench": "suite",
        "git_sha": sha,
        "unix_time": int(time.time()),
        "machine": {"host": socket.gethostname(), "hw_threads": os.cpu_count(),
                    "omp_threads": nproc},
        "context": {"host": socket.gethostname(), "nproc": str(nproc),
                    "omp_threads": str(nproc), "seed": str(seed),
                    "seconds": str(seconds), "git_sha": sha, "run": str(run)},
        "cases": [{"name": w, "metrics": {k: v["value"] for k, v in
                                          r["metrics"].items()}}
                  for w, r in results.items()],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--baseline-dir", default=None)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sha = git_sha()

    values = {w: {} for w in workloads}
    for run in range(1, args.runs + 1):
        seed = args.seed_base + run - 1
        results = {}
        for w in workloads:
            results[w] = run_once(w, seed, seconds)
            for name, m in results[w]["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
        if args.baseline_dir:
            os.makedirs(args.baseline_dir, exist_ok=True)
            write_baseline(os.path.join(args.baseline_dir,
                                        f"BENCH_suite.run{run}.json"),
                           run, seed, seconds, results, sha)
        print(f"run {run}/{args.runs} done", file=sys.stderr)

    print(f"{'workload':18s} {'metric':16s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for w in workloads:
        for name, vals in values[w].items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = " HIGH" if bound is not None and spread > bound / 3 else ""
            print(f"{w:18s} {name:16s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.3f} {bound!s:>6s}{flag}")


if __name__ == "__main__":
    main()
