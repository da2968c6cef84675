// Shared pieces of the perfbench program: arguments, the result every
// workload returns, the per-trial correctness checks, digests, the
// thread budget and the fixed metric sets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kset/runner.hpp"
#include "mc/mc_plane.hpp"
#include "mc/montecarlo.hpp"
#include "mc/scenario.hpp"
#include "spans.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test size: a lower trial floor and one set-up instead of five.
  bool smoke = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the metrics of its mode plus
/// the check tallies and provenance lines.
struct Result {
  std::vector<Metric> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// False when the traced run did not reproduce the untraced one.
  bool fidelity_ok = true;
  /// "key value" lines printed before the result object.
  std::vector<std::string> info;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& value) {
    info.push_back(key + " " + value);
  }
};

/// Trials at least every timed run folds: trial_ms_p90 needs ten
/// samples beyond it.
[[nodiscard]] std::int64_t min_trials(const Args& args);
/// How often set-up is repeated (setup_s is the median).
[[nodiscard]] int setup_reps(const Args& args);

/// Records nproc and the planned busy threads in `result`; throws (the
/// workload is refused) when they exceed nproc.
void plan_threads(Result& result, unsigned busy);
/// Worker tiles for the plane workloads: always 3, planned with the
/// dispatcher as 4 busy threads.
[[nodiscard]] unsigned plan_tiles(Result& result);
/// Records the plane's provenance (tiles, placement, failed pins).
void note_plane(Result& result, unsigned tiles,
                const std::vector<int>& placement, unsigned failed_pins);

/// Folds `trial` and reports whether it passed every check: the folded
/// McSummary counters for termination, k-agreement, validity and Lemma
/// 11's r_ST + 2n - 1 bound must not move, and the final skeleton must
/// have at most k root components (Theorem 1).
[[nodiscard]] bool fold_checked(sskel::McSummary& summary,
                                const sskel::ScenarioTrial& trial,
                                const sskel::KSetRunConfig& config);

/// fnv1a64(encode_summary_trial_fields(summary)): the fold digest.
[[nodiscard]] std::uint64_t summary_digest(const sskel::McSummary& summary);
/// FNV-1a over every field of one trial's report.
[[nodiscard]] std::uint64_t trial_digest(const sskel::ScenarioTrial& trial);
[[nodiscard]] std::string hex(std::uint64_t value);

/// Peak resident set of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();
/// Nearest-rank percentile, q in (0, 1].
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double seconds_between(std::int64_t start_ns,
                                     std::int64_t end_ns);

/// The end-to-end metrics (trace 0) every workload reports.
struct EndToEnd {
  double trials_per_s = 0.0;
  std::vector<double> trial_ms;
  std::vector<double> setup_s;
  double peak_rss_mb = 0.0;
};
void add_end_to_end(Result& result, const EndToEnd& e2e);

/// The per-layer metrics (trace 1). A layer a workload never calls
/// reads 0.
struct PerLayer {
  double checkpoint_stall_ms = 0.0;
  double checkpoints_written = 0.0;
  double tile_busy_share = 0.0;
  double offer_accept_share = 0.0;
  double collect_idle_us = 0.0;
  double submit_stalls = 0.0;
  double result_stalls = 0.0;
  double burst_grows = 0.0;
  double burst_shrinks = 0.0;
  double rounds_per_trial = 0.0;
  double msgs_per_round = 0.0;
  double on_time_share = 0.0;
  double late_per_round = 0.0;
  double credit_stalls = 0.0;
  double scc_components_resolved = 0.0;
  double intern_hit_share = 0.0;
  double peak_proc_set_mb = 0.0;
  /// Traced trials_per_s over untraced trials_per_s.
  double throughput_ratio = 0.0;
};
/// Adds the per-layer metrics, the span-derived ones from `spans`.
void add_per_layer(Result& result, const PerLayer& layer,
                   const TraceTotals& spans);

/// Per-layer counts every Algorithm 1 workload reads off its trials.
struct TrialCounts {
  std::int64_t trials = 0;
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t delivered = 0;
  std::int64_t late = 0;
  std::int64_t lost = 0;
  std::int64_t credit_stalls = 0;

  void add(const sskel::ScenarioTrial& trial);
  TrialCounts& operator+=(const TrialCounts& other);
  void fill(PerLayer& layer) const;
};

/// stream_offer and stream_collect as the traced runs call them: one
/// span each (a collect that delivers nothing is counted as dispatcher
/// idle time instead of kept as a span), plus the offer counts.
[[nodiscard]] bool traced_offer(sskel::McTilePlane& plane, std::uint64_t index,
                                std::uint64_t seed);
std::size_t traced_collect(sskel::McTilePlane& plane,
                           const sskel::McTilePlane::StreamSink& sink);

/// The plane's stall counters before a traced stream.
struct PlaneMarks {
  std::int64_t submit_stalls = 0;
  std::int64_t result_stalls = 0;
};
[[nodiscard]] PlaneMarks marks(const sskel::McTilePlane& plane);

/// hits / (hits + misses), 0 without lookups.
[[nodiscard]] double hit_share(const sskel::InternStats& stats);

/// Fills the mc.* metrics, intern hit share and ProcSet peak of a
/// traced stream of `trials` trials that kept the tiles busy for
/// `busy_ns` (sink elapsed_ns) over `wall_seconds`.
void fill_plane_layer(PerLayer& layer, const TraceTotals& spans,
                      const sskel::McTilePlane& plane, PlaneMarks before,
                      std::int64_t trials, std::int64_t busy_ns,
                      double wall_seconds);

/// Workload entry points.
[[nodiscard]] Result run_fleet(const Args& args);
[[nodiscard]] Result run_consensus(const Args& args);
[[nodiscard]] Result run_network(const Args& args);
[[nodiscard]] Result run_certify(const Args& args);

}  // namespace perfbench
