#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the repository root (takes about two minutes; builds first):

    python3 perfbench/test_perfbench.py
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
END_TO_END = [m["name"] for m in BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]


def run(workload, seed, trace, seconds=1, cwd=ROOT, script=None):
    """Runs the benchmark at smoke size; returns (exit, info, result)."""
    command = [sys.executable, script or os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", str(trace), "--smoke"]
    done = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = done.stdout.splitlines()
    info = dict(line.split(" ", 1) for line in lines[:-1] if " " in line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, info, result


class Names(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        names = WORKLOADS + END_TO_END + PER_LAYER
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
        self.assertEqual(WORKLOADS, ["fleet", "consensus", "network", "certify"])
        self.assertIn("setup_s", END_TO_END)


class Workloads(unittest.TestCase):
    def test_every_workload_passes_its_checks_at_smoke_size(self):
        for workload in WORKLOADS:
            for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    code, info, result = run(workload, 7, trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(list(result["metrics"]), expected)
                    self.assertEqual(info["fidelity"], "ok")
                    self.assertEqual(info["fail_rate"], "0")
                    for key in ("nproc", "tiles", "placement", "failed_pins"):
                        self.assertIn(key, info)
                    if trace:
                        self.assertEqual(info["fold_digest"],
                                         info.get("fold_digest_untraced",
                                                  info["fold_digest"]))

    def test_seed_changes_the_digest_but_not_the_metric_set(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first, a = run(workload, 1, 0)
                _, again, _ = run(workload, 1, 0)
                _, other, b = run(workload, 2, 0)
                self.assertEqual(first["fold_digest"], again["fold_digest"])
                self.assertNotEqual(first["fold_digest"], other["fold_digest"])
                self.assertEqual(list(a["metrics"]), list(b["metrics"]))


class Refusals(unittest.TestCase):
    def test_bad_arguments_exit_without_a_result(self):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "nosuch", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=120)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")

    def test_fails_without_the_library_sources(self):
        scratch_root = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch_root, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=scratch_root)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, _, result = run("network", 1, 0, cwd=bare,
                                  script=os.path.join(bare, "perfbench",
                                                      "run.py"))
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main(verbosity=2)
