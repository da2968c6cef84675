// Monte-Carlo aggregation over seeded scenario trials.
//
// The statistical experiments (E2, E4, E5, E7, E11, parts of E8) all
// share one shape: sample many seeded adversaries from a scenario
// factory, run Algorithm 1 on each, and aggregate
// decision/skeleton/traffic metrics. This module is the aggregate and
// its one-trial fold; McTilePlane (mc/mc_plane.hpp) runs the trials
// and folds them in trial order, so every aggregate is bit-identical
// for every tile count.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "kset/runner.hpp"
#include "mc/scenario.hpp"
#include "skeleton/intern.hpp"
#include "util/stats.hpp"

namespace sskel {

struct McSummary {
  /// name() of the scenario the trials came from.
  std::string scenario;
  std::int64_t runs = 0;
  /// Runs in which some process failed to decide within max_rounds.
  std::int64_t undecided_runs = 0;
  /// Runs violating k-agreement (must stay 0 under Psrcs(k)).
  std::int64_t agreement_violations = 0;
  /// Runs violating validity.
  std::int64_t validity_violations = 0;
  /// Runs whose last decision exceeded Lemma 11's bound.
  std::int64_t bound_violations = 0;
  /// Runs with lemma-monitor findings (when the monitor is attached).
  std::int64_t lemma_violation_runs = 0;

  Accumulator distinct_values;       // per run
  Accumulator root_components;       // of the final skeleton
  Accumulator last_decision_round;   // over decided runs
  Accumulator stabilization_round;   // observed r_ST
  Accumulator total_messages;
  /// Byte accumulators are fed only when the run config enables
  /// measure_bytes; bytes_measured records which case this was.
  bool bytes_measured = false;
  Accumulator total_bytes;
  Accumulator max_message_bytes;
  IntHistogram distinct_histogram;
  IntHistogram root_histogram;

  /// Network accounting (net-backed scenarios only).
  bool net_backed = false;
  Accumulator late_messages;
  Accumulator lost_messages;
  Accumulator wall_clock_ms;  // simulated milliseconds
  /// Total ring-plane flow-control stalls across the batch (0 when
  /// rings never ran dry).
  std::int64_t credit_stalls = 0;

  /// Structure-interning counters, merged over the per-tile shards
  /// (DESIGN.md §10). McTilePlane interns by default — it supplies its
  /// persistent InternDomain when the run config does not — so
  /// cross-trial structure sharing shows up here.
  InternStats intern;
  std::int64_t intern_shards = 0;

  /// ProcSet heap accounting over the whole batch: the live-bytes
  /// high-water mark reached while the trials ran (peak reset at batch
  /// start) and the bytes still live when they finished (structures
  /// retained by the intern domain and any caller-held state). The
  /// n = 65,536 scale runs are sized by these. Both are summed from
  /// per-thread counter blocks (util/metrics.hpp): the live total is
  /// exact once the tiles are idle, as they are when a batch ends; the
  /// peak is exact on one thread and within (threads - 1) x 64 KiB of
  /// the true high-water mark when several tiles allocate at once.
  std::int64_t peak_proc_set_bytes = 0;
  std::int64_t live_proc_set_bytes = 0;
  /// Word-arena state after the batch: bytes parked for reuse in the
  /// per-thread arenas (outside live_proc_set_bytes) and the running
  /// count of dense materializations served from a recycled buffer.
  /// Exact, like the live total.
  std::int64_t arena_proc_set_bytes = 0;
  std::int64_t arena_reuses = 0;

  /// Tile provenance (DESIGN.md §13): how many tiles ran the trials,
  /// the planned CPU per tile when pinning was on ("" otherwise,
  /// util/topology.hpp rendering), and how many pins the OS refused —
  /// so a throughput regression caused by denied affinity is
  /// diagnosable from the artifact alone. Excluded from the
  /// bit-equality tripwires, like the intern/arena fields above.
  std::int64_t tiles = 0;
  std::string tile_placement;
  std::int64_t failed_pins = 0;
};

/// Optional per-trial hook, invoked on the dispatching thread in trial
/// order right after the trial folds (so it is deterministic too).
/// Receives the trial index and the full trial result; use it for
/// per-trial tables the summary's accumulators don't capture.
using TrialCallback = std::function<void(std::size_t, const ScenarioTrial&)>;

/// Folds one trial into `summary`. A batch's summary is defined as
/// this left fold over its trials in trial order: McTilePlane folds
/// completed trials that way as they arrive, and campaign resume
/// rests on it — continuing the fold from a checkpointed prefix
/// summary is bit-identical to one uninterrupted fold (DESIGN.md
/// §15). `config` supplies the guard for the Lemma-11 bound check;
/// summary.bytes_measured must be set before the first fold (it gates
/// the byte accumulators).
void fold_scenario_trial(McSummary& summary, const ScenarioTrial& trial,
                         const KSetRunConfig& config);

}  // namespace sskel
