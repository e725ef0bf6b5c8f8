#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (which builds the
repository's cqs_core library from the parent directory) into
.bench_build/perfbench; later runs only let the build tool check that it is
up to date. Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result. Run files (spill file, checkpoint, span file) go to
.bench_build/run. Exits non-zero without a result when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "run")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "cqs_perfbench"])
    for step in steps:
        code = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode
        if code != 0:
            return code
    return 0


def main():
    code = build()
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    binary = os.path.join(BUILD, "cqs_perfbench")
    return subprocess.run([binary] + sys.argv[1:] + ["--work-dir", WORK]).returncode


if __name__ == "__main__":
    sys.exit(main())
