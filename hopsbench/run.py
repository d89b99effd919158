#!/usr/bin/env python3
"""Builds hopsbench from this checkout's sources and runs one workload.

    python3 hopsbench/run.py --workload estimate_cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR when
set, else .bench_build/ (relative to the checkout root); the first run
configures and compiles the hops library and the benchmark there, later
runs only check that it is up to date. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Exits non-zero, without
a result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def source_rev(root):
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build(build_dir):
    steps = []
    # Configure until a generate step has succeeded (it writes the Makefile).
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "hopsbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("hopsbench: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(build_dir, "hopsbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out-dir", build_dir, "--source-rev", source_rev(root)]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("hopsbench: run timed out", file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
