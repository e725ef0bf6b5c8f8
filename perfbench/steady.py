#!/usr/bin/env python3
"""Steadiness tool: run workloads repeatedly and summarise each metric.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--seconds S] [--trace] [--counts]

Runs every named workload (default: all in BENCHMARK.json) once per seed,
then prints for each metric its median, first and third quartiles
(statistics.quantiles(values, n=4)), the quartile spread as a share of the
median, and the metric's bound from BENCHMARK.json; a spread over a third
of its bound is flagged. The bounds in BENCHMARK.json were set from these
figures.

--counts instead runs each workload traced twice on one seed and checks
that the work counts of a one-worker run repeat exactly: codec calls,
spill and fault events, scheduled runs and cache hits and misses.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counters that are timing-dependent by design (report.hpp) and excluded
# from the exact-repeat check.
TIMING_DEPENDENT = {"runtime.readahead_hits"}


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), wall


def summarise(workload, results, walls, bounds):
    print(f"\n{workload}: {len(results)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"  correct {all(r['correct'] for r in results)}, failed share {sorted(shares)}")
    print(f"  {'metric':34} {'median':>13} {'q1':>13} {'q3':>13} {'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = " <-- over a third of its bound" if bound and spread > bound / 3 else ""
        print(f"  {name:34} {med:13.6g} {q1:13.6g} {q3:13.6g} {spread:8.4f} "
              f"{bound if bound else '':>6}{flag}")


def check_counts(workload, seed, seconds):
    first, _ = run(workload, seed, seconds, True)
    second, _ = run(workload, seed, seconds, True)
    differ = []
    for name, metric in first["metrics"].items():
        if metric["unit"] != "count" or name in TIMING_DEPENDENT:
            continue
        if metric["value"] != second["metrics"][name]["value"]:
            differ.append(f"{name} {metric['value']} vs {second['metrics'][name]['value']}")
    print(f"{workload}: work counts {'repeat exactly' if not differ else 'DIFFER: ' + '; '.join(differ)}")
    return not differ


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--counts", action="store_true")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    if args.counts:
        ok = all([check_counts(w, args.first_seed, args.seconds) for w in workloads])
        return 0 if ok else 1
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in workloads:
        results, walls = [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, wall = run(workload, seed, args.seconds, args.trace)
            results.append(result)
            walls.append(wall)
        summarise(workload, results, walls, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
