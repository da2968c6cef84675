#!/usr/bin/env python3
"""Diff two BENCH_*.json files and fail on large regressions.

Usage:
    bench_diff.py BASELINE CURRENT [--threshold 2.0]
    bench_diff.py select-baseline RUNS_JSON --current-run ID \
        --branch BRANCH [--default-branch main]

Records are matched on their identity fields (op plus n/k/j/rounds/
adversary/plane/tiles/round_duration_us when present). For every matched pair the timing fields
(*_ns, ns_per_op), throughput rates (*_per_sec — higher is better),
percentage overheads (*_pct — lower is better, with an absolute
tolerance band like means) and work counters (subsets_visited*,
intern_*, credit_*) are
compared; a lower-is-better value that grew by more than `threshold`
x its baseline — or a rate that fell below baseline / `threshold` —
counts as a regression and flips the exit code to 1. Records present
on only one side are reported but never fail the diff (benches come
and go), and timing fields below a noise floor are skipped —
sub-microsecond rows regress by scheduling jitter alone.

Mean-style statistics (mean_*) are compared with an additional
absolute-tolerance band: a small mean moving by a fraction of a unit
is a huge *ratio* but no regression (0.1 -> 0.3 late messages is
noise), so the ratio check only applies when |current - baseline|
also exceeds MEAN_ABS_TOLERANCE.

The `select-baseline` subcommand picks which earlier CI run to diff
against from a `gh run list --json databaseId,headBranch` dump
(newest first): the latest successful run on the same branch, or —
when the branch has none (first push of a PR branch) — the latest
successful run on the default branch. Prints the chosen run id, or
nothing when no candidate exists.
"""

import argparse
import json
import sys

# Fields that identify a record rather than measure it.
IDENTITY_FIELDS = ("op", "adversary", "n", "k", "j", "rounds", "plane",
                   "tiles", "round_duration_us")
# Measured fields compared against the threshold: (suffix, noise floor).
TIMING_SUFFIXES = ("_ns", "ns_per_op")
# Throughput rates: higher is better, so the regression direction flips.
RATE_SUFFIXES = ("_per_sec",)
# Percentage overheads (checkpoint_stall_pct, ...): lower is better,
# but like means their ratios lie near zero — 0.04% -> 0.3% is a 7.5x
# ratio and still nothing — so they carry an absolute band too.
PCT_SUFFIXES = ("_pct",)
PCT_ABS_TOLERANCE = 0.5
COUNTER_PREFIXES = ("subsets_visited", "intern_", "peak_", "credit_")
# Mean-style statistics: lower is better, but ratios lie for small
# means — the diff additionally requires an absolute move above
# MEAN_ABS_TOLERANCE before flagging one.
MEAN_PREFIXES = ("mean_",)
MEAN_ABS_TOLERANCE = 1.0
TIMING_NOISE_FLOOR_NS = 1000.0  # ignore sub-microsecond timings
RATE_NOISE_FLOOR = 1.0
COUNTER_NOISE_FLOOR = 64.0


def record_key(record):
    return tuple((f, record[f]) for f in IDENTITY_FIELDS if f in record)


def measured_fields(record):
    """Yields (name, value, noise_floor, higher_is_better) per field."""
    for key, value in record.items():
        if key in IDENTITY_FIELDS or not isinstance(value, (int, float)):
            continue
        if any(key.endswith(s) for s in TIMING_SUFFIXES):
            yield key, float(value), TIMING_NOISE_FLOOR_NS, False
        elif any(key.endswith(s) for s in RATE_SUFFIXES):
            yield key, float(value), RATE_NOISE_FLOOR, True
        elif any(key.endswith(s) for s in PCT_SUFFIXES):
            yield key, float(value), 0.0, False
        elif any(key.startswith(p) for p in COUNTER_PREFIXES):
            yield key, float(value), COUNTER_NOISE_FLOOR, False
        elif any(key.startswith(p) for p in MEAN_PREFIXES):
            yield key, float(value), 0.0, False


def abs_tolerance(field):
    """Absolute move a field must exceed before its ratio is judged."""
    if any(field.startswith(p) for p in MEAN_PREFIXES):
        return MEAN_ABS_TOLERANCE
    if any(field.endswith(s) for s in PCT_SUFFIXES):
        return PCT_ABS_TOLERANCE
    return 0.0


def load_records(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    records = {}
    for record in doc.get("records", []):
        # Last record wins on duplicate keys; benches do not emit
        # duplicates, but a malformed file should not crash the diff.
        records[record_key(record)] = record
    return doc.get("bench", "?"), records


def select_baseline(runs, current_run_id, branch, default_branch="main"):
    """Picks the CI run whose artifact should be the diff baseline.

    `runs` is a newest-first list of {"databaseId": ..., "headBranch":
    ...} dicts (successful runs only — the caller filters by status).
    Returns the databaseId of the newest run on `branch` that is not
    the current run; when the branch has no prior run (first push of a
    PR branch), falls back to the newest run on `default_branch`;
    returns None when neither exists.
    """
    current = str(current_run_id)
    candidates = [r for r in runs
                  if str(r.get("databaseId", "")) != current
                  and r.get("databaseId") is not None]
    for run in candidates:
        if run.get("headBranch") == branch:
            return run["databaseId"]
    if branch != default_branch:
        for run in candidates:
            if run.get("headBranch") == default_branch:
                return run["databaseId"]
    return None


def main_select_baseline(argv):
    parser = argparse.ArgumentParser(
        prog="bench_diff.py select-baseline",
        description="Pick the baseline CI run id from a gh run list dump.")
    parser.add_argument("runs_json",
                        help="file with `gh run list --json "
                             "databaseId,headBranch` output")
    parser.add_argument("--current-run", required=True,
                        help="run id to exclude (the run doing the diff)")
    parser.add_argument("--branch", required=True,
                        help="branch whose history is preferred")
    parser.add_argument("--default-branch", default="main",
                        help="fallback branch (default: main)")
    args = parser.parse_args(argv)

    with open(args.runs_json, encoding="utf-8") as f:
        runs = json.load(f)
    chosen = select_baseline(runs, args.current_run, args.branch,
                             args.default_branch)
    if chosen is not None:
        print(chosen)
    return 0


def main_diff(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="fail when current > threshold * baseline")
    args = parser.parse_args(argv)

    base_name, base = load_records(args.baseline)
    cur_name, cur = load_records(args.current)
    print(f"baseline: {args.baseline} (bench={base_name}, {len(base)} records)")
    print(f"current:  {args.current} (bench={cur_name}, {len(cur)} records)")

    regressions = []
    compared = 0
    for key, cur_rec in sorted(cur.items()):
        base_rec = base.get(key)
        label = ", ".join(f"{k}={v}" for k, v in key)
        if base_rec is None:
            print(f"  new record (not compared): {label}")
            continue
        for field, cur_val, floor, higher_better in measured_fields(cur_rec):
            base_val = base_rec.get(field)
            if not isinstance(base_val, (int, float)):
                continue
            base_val = float(base_val)
            if base_val < floor and cur_val < floor:
                continue
            compared += 1
            if base_val <= 0:
                continue
            if abs(cur_val - base_val) <= abs_tolerance(field):
                continue
            if higher_better:
                if cur_val * args.threshold < base_val:
                    ratio = base_val / max(cur_val, 1e-12)
                    regressions.append(
                        f"{label}: {field} {base_val:.6g} -> {cur_val:.6g} "
                        f"({ratio:.2f}x slower > {args.threshold}x)")
            elif cur_val > args.threshold * base_val:
                ratio = cur_val / base_val
                regressions.append(
                    f"{label}: {field} {base_val:.6g} -> {cur_val:.6g} "
                    f"({ratio:.2f}x > {args.threshold}x)")
    for key in sorted(set(base) - set(cur)):
        label = ", ".join(f"{k}={v}" for k, v in key)
        print(f"  removed record (not compared): {label}")

    print(f"compared {compared} measured values "
          f"across {len(set(base) & set(cur))} matched records")
    if regressions:
        print(f"\n{len(regressions)} regression(s) above threshold:")
        for line in regressions:
            print(f"  REGRESSION {line}")
        return 1
    print("no regressions above threshold")
    return 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "select-baseline":
        return main_select_baseline(argv[1:])
    return main_diff(argv)


if __name__ == "__main__":
    sys.exit(main())
