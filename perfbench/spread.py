#!/usr/bin/env python3
"""Measures how steady the benchmark is: runs workloads over several seeds.

Usage (from the repository root):

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds S]
                                [--trace 0|1] [workload ...]

For each workload (default: all in BENCHMARK.json) it runs
perfbench/run.py once per seed, then prints every metric's median and
its spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. With
--trace 0 each spread is compared with a third of the metric's bound
from BENCHMARK.json (setup_s is reported but not held to it). Exits 1
when a run fails or a spread is at or above that target.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result["correct"]:
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    steady = True
    for workload in workloads:
        samples = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            metrics = run_once(workload, seed, args.seconds, args.trace)
            if metrics is None:
                print("%s seed %d: FAILED" % (workload, seed))
                steady = False
                continue
            samples.append(metrics)
        if len(samples) < 2:
            continue
        print("%s (%d runs)" % (workload, len(samples)))
        for name in samples[0]:
            values = [s[name] for s in samples]
            share = spread(values) if statistics.median(values) else 0.0
            verdict = ""
            if not args.trace and name in bounds:
                target = bounds[name] / 3
                held = name == "setup_s" or share < target
                verdict = "ok" if held else "NOISY"
                steady = steady and held
                verdict = "%s (target < %.4f)" % (verdict, target)
            print("  %-34s median %-14.6g spread %.4f %s"
                  % (name, statistics.median(values), share, verdict))
            print("  %34s %s" % ("by seed:", " ".join("%.4g" % v for v in values)))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
