#!/usr/bin/env python3
"""Unit tests for bench_diff.py — baseline selection and field picking."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_diff  # noqa: E402


def run(database_id, branch):
    return {"databaseId": database_id, "headBranch": branch}


class SelectBaselineTest(unittest.TestCase):
    def test_prefers_newest_run_on_same_branch(self):
        runs = [run(30, "feature"), run(20, "feature"), run(10, "main")]
        self.assertEqual(
            bench_diff.select_baseline(runs, 99, "feature", "main"), 30)

    def test_excludes_the_current_run(self):
        runs = [run(30, "feature"), run(20, "feature")]
        self.assertEqual(
            bench_diff.select_baseline(runs, 30, "feature", "main"), 20)

    def test_current_run_id_compares_as_string(self):
        # gh emits numeric ids; GITHUB_RUN_ID arrives as a string.
        runs = [run(30, "feature"), run(20, "feature")]
        self.assertEqual(
            bench_diff.select_baseline(runs, "30", "feature", "main"), 20)

    def test_falls_back_to_default_branch_on_first_push(self):
        runs = [run(30, "other"), run(20, "main"), run(10, "main")]
        self.assertEqual(
            bench_diff.select_baseline(runs, 99, "feature", "main"), 20)

    def test_no_candidate_returns_none(self):
        self.assertIsNone(
            bench_diff.select_baseline([], 99, "feature", "main"))
        runs = [run(30, "other")]
        self.assertIsNone(
            bench_diff.select_baseline(runs, 99, "feature", "main"))

    def test_default_branch_run_is_not_picked_over_branch_run(self):
        # A newer default-branch run must not shadow the branch's own
        # history.
        runs = [run(40, "main"), run(30, "feature")]
        self.assertEqual(
            bench_diff.select_baseline(runs, 99, "feature", "main"), 30)

    def test_on_default_branch_current_run_is_still_excluded(self):
        # branch == default_branch: only one scan, current excluded.
        runs = [run(30, "main"), run(20, "main")]
        self.assertEqual(
            bench_diff.select_baseline(runs, 30, "main", "main"), 20)

    def test_only_current_run_on_default_branch_returns_none(self):
        runs = [run(30, "main")]
        self.assertIsNone(
            bench_diff.select_baseline(runs, 30, "main", "main"))

    def test_malformed_run_entries_are_skipped(self):
        runs = [{"headBranch": "feature"}, run(20, "feature")]
        self.assertEqual(
            bench_diff.select_baseline(runs, 99, "feature", "main"), 20)


class MeasuredFieldsTest(unittest.TestCase):
    def test_intern_counters_are_compared(self):
        record = {"op": "trial", "n": 64,
                  "intern_misses": 12, "intern_hits": 900,
                  "subsets_visited": 5, "total_ns": 1e6,
                  "note": "not-a-number"}
        fields = {name for name, _, _, _ in bench_diff.measured_fields(record)}
        self.assertEqual(
            fields,
            {"intern_misses", "intern_hits", "subsets_visited", "total_ns"})

    def test_peak_memory_counters_are_compared(self):
        record = {"op": "micro_intersect", "n": 65536,
                  "peak_bytes_dense": 2_147_483_648,
                  "peak_bytes_tiered": 16_777_216,
                  "speedup": 125.0, "tiered_ns": 1e7}
        fields = {name for name, _, _, _ in bench_diff.measured_fields(record)}
        self.assertIn("peak_bytes_dense", fields)
        self.assertIn("peak_bytes_tiered", fields)
        self.assertIn("tiered_ns", fields)
        self.assertNotIn("speedup", fields)  # ratio, not timing/counter

    def test_identity_fields_are_never_measured(self):
        record = {"op": "trial", "n": 64, "k": 2, "rounds": 10,
                  "plane": "ring", "tiles": 2}
        self.assertEqual(list(bench_diff.measured_fields(record)), [])

    def test_rate_fields_are_higher_is_better(self):
        record = {"op": "plane_throughput", "plane": "ring", "n": 24,
                  "process_rounds_per_sec": 1.7e6, "total_ns": 2e9,
                  "credit_stall_total": 3}
        directions = {name: higher for name, _, _, higher
                      in bench_diff.measured_fields(record)}
        self.assertTrue(directions["process_rounds_per_sec"])
        self.assertFalse(directions["total_ns"])
        self.assertFalse(directions["credit_stall_total"])

    def test_credit_counters_are_compared(self):
        record = {"op": "multiplexed", "tiles": 2,
                  "credit_stall_submit": 10, "credit_stall_result": 4}
        fields = {name for name, _, _, _ in bench_diff.measured_fields(record)}
        self.assertEqual(fields,
                         {"credit_stall_submit", "credit_stall_result"})

    def test_mean_fields_are_compared_lower_is_better(self):
        record = {"op": "trial", "n": 64,
                  "mean_late_messages": 296.2, "mean_rounds": 9.5}
        directions = {name: higher for name, _, _, higher
                      in bench_diff.measured_fields(record)}
        self.assertEqual(set(directions),
                         {"mean_late_messages", "mean_rounds"})
        self.assertFalse(directions["mean_late_messages"])

    def test_mean_fields_carry_an_absolute_tolerance(self):
        self.assertEqual(bench_diff.abs_tolerance("mean_late_messages"),
                         bench_diff.MEAN_ABS_TOLERANCE)
        self.assertEqual(bench_diff.abs_tolerance("total_ns"), 0.0)

    def test_campaign_fields_pick_the_right_directions(self):
        # The E17 record: sustained throughput is a rate (higher is
        # better), checkpoint stall is a percentage (lower is better),
        # and the gate booleans/ratios are not measured at all.
        record = {"op": "campaign_throughput",
                  "sustained_trials_per_sec": 7.1e4,
                  "batch_trials_per_sec": 6.0e4,
                  "checkpoint_stall_pct": 0.04,
                  "throughput_ratio": 1.18,
                  "throughput_gate_pass": 1}
        directions = {name: higher for name, _, _, higher
                      in bench_diff.measured_fields(record)}
        self.assertTrue(directions["sustained_trials_per_sec"])
        self.assertTrue(directions["batch_trials_per_sec"])
        self.assertFalse(directions["checkpoint_stall_pct"])
        self.assertNotIn("throughput_ratio", directions)
        self.assertNotIn("throughput_gate_pass", directions)

    def test_pct_fields_carry_an_absolute_tolerance(self):
        self.assertEqual(bench_diff.abs_tolerance("checkpoint_stall_pct"),
                         bench_diff.PCT_ABS_TOLERANCE)

    def test_plane_distinguishes_record_identity(self):
        ring = {"op": "plane_throughput", "plane": "ring", "n": 24}
        eq = {"op": "plane_throughput", "plane": "event-queue", "n": 24}
        self.assertNotEqual(bench_diff.record_key(ring),
                            bench_diff.record_key(eq))


class DiffDirectionTest(unittest.TestCase):
    """End-to-end diff runs over temp files: regression directions."""

    @staticmethod
    def run_diff(base_records, cur_records, threshold=2.0):
        import json
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "base.json")
            cur_path = os.path.join(tmp, "cur.json")
            with open(base_path, "w", encoding="utf-8") as f:
                json.dump({"bench": "t", "records": base_records}, f)
            with open(cur_path, "w", encoding="utf-8") as f:
                json.dump({"bench": "t", "records": cur_records}, f)
            return bench_diff.main_diff(
                [base_path, cur_path, "--threshold", str(threshold)])

    def test_rate_drop_beyond_threshold_fails(self):
        base = [{"op": "plane_throughput", "plane": "ring",
                 "process_rounds_per_sec": 1.6e6}]
        cur = [{"op": "plane_throughput", "plane": "ring",
                "process_rounds_per_sec": 0.5e6}]  # > 2x slower
        self.assertEqual(self.run_diff(base, cur), 1)

    def test_rate_gain_never_fails(self):
        base = [{"op": "plane_throughput", "plane": "ring",
                 "process_rounds_per_sec": 0.5e6}]
        cur = [{"op": "plane_throughput", "plane": "ring",
                "process_rounds_per_sec": 5e6}]  # 10x faster: fine
        self.assertEqual(self.run_diff(base, cur), 0)

    def test_rate_drop_within_threshold_passes(self):
        base = [{"op": "plane_throughput", "plane": "ring",
                 "process_rounds_per_sec": 1.6e6}]
        cur = [{"op": "plane_throughput", "plane": "ring",
                "process_rounds_per_sec": 1.0e6}]  # 1.6x: under 2x
        self.assertEqual(self.run_diff(base, cur), 0)

    def test_credit_stall_growth_fails(self):
        base = [{"op": "multiplexed", "tiles": 2,
                 "credit_stall_submit": 100}]
        cur = [{"op": "multiplexed", "tiles": 2,
                "credit_stall_submit": 500}]
        self.assertEqual(self.run_diff(base, cur), 1)

    def test_small_absolute_mean_move_passes_despite_large_ratio(self):
        # 0.1 -> 0.8 is an 8x ratio but under the 1.0-unit band: float
        # noise and single-trial jitter, not a regression.
        base = [{"op": "trial", "n": 64, "mean_late_messages": 0.1}]
        cur = [{"op": "trial", "n": 64, "mean_late_messages": 0.8}]
        self.assertEqual(self.run_diff(base, cur), 0)

    def test_large_mean_regression_still_fails(self):
        base = [{"op": "trial", "n": 64, "mean_late_messages": 10.0}]
        cur = [{"op": "trial", "n": 64, "mean_late_messages": 50.0}]
        self.assertEqual(self.run_diff(base, cur), 1)

    def test_sustained_rate_drop_beyond_threshold_fails(self):
        base = [{"op": "campaign_throughput",
                 "sustained_trials_per_sec": 7.0e4}]
        cur = [{"op": "campaign_throughput",
                "sustained_trials_per_sec": 2.0e4}]  # 3.5x slower
        self.assertEqual(self.run_diff(base, cur), 1)

    def test_small_pct_move_passes_despite_large_ratio(self):
        # 0.04% -> 0.3% stall is a 7.5x ratio but within the absolute
        # band: timer jitter on a fast run, not a regression.
        base = [{"op": "campaign_throughput", "checkpoint_stall_pct": 0.04}]
        cur = [{"op": "campaign_throughput", "checkpoint_stall_pct": 0.3}]
        self.assertEqual(self.run_diff(base, cur), 0)

    def test_large_pct_regression_fails(self):
        base = [{"op": "campaign_throughput", "checkpoint_stall_pct": 0.6}]
        cur = [{"op": "campaign_throughput", "checkpoint_stall_pct": 3.0}]
        self.assertEqual(self.run_diff(base, cur), 1)

    def test_missing_baseline_record_is_skipped(self):
        base = []
        cur = [{"op": "plane_throughput", "plane": "ring",
                "process_rounds_per_sec": 1.6e6}]
        self.assertEqual(self.run_diff(base, cur), 0)


class CommittedBaselineTest(unittest.TestCase):
    """The committed BENCH_network.json, loaded as the diff loads it."""

    PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "BENCH_network.json")

    def committed_records(self):
        import json
        with open(self.PATH, encoding="utf-8") as f:
            return json.load(f)["records"]

    def test_every_committed_record_has_its_own_key(self):
        # E11's timeout_sweep rows differ only in round_duration_us; a
        # key without it collapses the sweep into its last row.
        _, loaded = bench_diff.load_records(self.PATH)
        self.assertEqual(len(loaded), len(self.committed_records()))

    def test_late_regression_at_one_round_duration_fails(self):
        base = self.committed_records()
        cur = [dict(r) for r in base]
        for record in cur:
            if (record["op"] == "timeout_sweep"
                    and record["round_duration_us"] == 400):
                record["mean_late_messages"] *= 3
        self.assertEqual(DiffDirectionTest.run_diff(base, cur), 1)


if __name__ == "__main__":
    unittest.main()
