#!/usr/bin/env python3
"""Repeat-run helper: runs workloads several times and reports spreads.

    python3 perfbench/repeat.py --workload <name|all> --runs 10 \
        [--first-seed 1] [--trace 0] [--save runs.json] [--compare runs.json]

Run it from the repository root. Each run goes through perfbench/run.py
with its own seed (first-seed, first-seed + 1, ...) and the run length
from BENCHMARK.json. For every metric it prints the median, the first and
third quartiles (statistics.quantiles(values, n=4)), the spread
(Q3 - Q1) / median, and the metric's bound from BENCHMARK.json:

    steady   spread below a third of the bound
    ok       spread within the bound
    WIDE     spread beyond the bound (setup_s is exempt)

With --compare, the medians are also checked against an earlier --save
file: a median worse than the earlier one by more than the bound is
flagged REGRESSED. Use it to set bounds and to show two sets of runs agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %d (exit %d)\n%s"
                 % (workload, seed, proc.returncode, proc.stdout))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("incorrect run: %s seed %d: %s" % (workload, seed, lines[-1]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median if median else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--save")
    parser.add_argument("--compare")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    defs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    workloads = ([w["name"] for w in bench["workloads"]]
                 if args.workload == "all" else [args.workload])
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    saved = {}
    worst = "steady"
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(workload, args.first_seed + i,
                                 bench["run_seconds"], args.trace))
            print("  %s run %d/%d done" % (workload, i + 1, args.runs),
                  file=sys.stderr)
        saved[workload] = {name: [r[name] for r in runs] for name in runs[0]}
        print("\n== %s (%d runs, seeds %d..%d)" % (
            workload, args.runs, args.first_seed,
            args.first_seed + args.runs - 1))
        print("%-38s %14s %14s %14s %8s %6s  %s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for name, values in saved[workload].items():
            q1, median, q3, rel = spread(values)
            bound = defs.get(name, {}).get("bound")
            verdict = "-"
            if bound is not None:
                if rel <= bound / 3:
                    verdict = "steady"
                elif rel <= bound or name == "setup_s":
                    verdict = "ok"
                else:
                    verdict = "WIDE"
                before = earlier.get(workload, {}).get(name)
                if before:
                    old = statistics.median(before)
                    worse = (median - old) / old
                    if defs[name]["better"] == "higher":
                        worse = -worse
                    if worse > bound:
                        verdict += " REGRESSED(%+.1f%%)" % (100 * worse)
                    else:
                        verdict += " vs-earlier(%+.1f%%)" % (100 * worse)
            if verdict.startswith("WIDE") or "REGRESSED" in verdict:
                worst = "WIDE"
            elif verdict.startswith("ok") and worst == "steady":
                worst = "ok"
            print("%-38s %14.6g %14.6g %14.6g %7.2f%% %6s  %s" % (
                name, median, q1, q3, 100 * rel,
                "" if bound is None else bound, verdict))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    print("\noverall: %s" % worst)
    return 0 if worst != "WIDE" else 1


if __name__ == "__main__":
    sys.exit(main())
