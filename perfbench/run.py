#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the driver from source with
CMake into .bench_build/perfbench (the first build compiles the repo's
libraries and takes a minute or two), runs it, and relays its output. The
last line of standard output is the result JSON:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Build logs go to standard error. The exit code is non-zero, with no
result printed, when the build fails, and non-zero (with the result) when
an output gate fails.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "run")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
# One run must finish within 180 s; leave room for the build check.
DRIVER_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build():
    """Configures (once) and builds the driver; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS,
                  "--target", "perfbench_driver"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")

    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        print("perfbench: run from the repository root", file=sys.stderr)
        return 2
    if not build():
        return 1
    os.makedirs(WORK_DIR, exist_ok=True)

    command = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the driver.
        print("perfbench: driver timed out", file=sys.stderr)
        return 1

    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        valid = set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError):
        valid = False
    if not valid:
        sys.stderr.write(proc.stdout)
        print("perfbench: driver printed no result (exit code %d)"
              % proc.returncode, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
