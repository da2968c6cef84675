// consensus and network: Algorithm 1 trials streamed through
// McTilePlane's stream face and folded with fold_scenario_trial.
//
// Closed loop: at most `window` trials are in flight; the dispatcher
// offers the next trial only when the plane accepts it. The timed
// window runs from the first offer to the last fold before the
// deadline (or to the min_trials-th fold, whichever is later);
// in-flight trials past it are still folded and checked.
#include <algorithm>
#include <memory>
#include <thread>

#include "adversary/random_psrcs.hpp"
#include "common.hpp"
#include "mc/mc_plane.hpp"
#include "traced_kset.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using sskel::KSetRunConfig;
using sskel::McTilePlane;
using sskel::ScenarioFactory;
using sskel::ScenarioTrial;

/// Fixed seeds, the same in every run: set-up does the same warm-up
/// work whatever --seed is, and the network workload keeps one
/// physical network (a per-seed topology changes the trial cost by
/// more than the bounds allow); --seed drives the timed trials.
constexpr std::uint64_t kWarmupSeed = 0x5741524d;  // "WARM"
constexpr std::uint64_t kLinksSeed = 0x4c494e4b;   // "LINK"

struct StreamPlan {
  std::uint64_t master = 0;
  double seconds = 0.0;
  std::int64_t min_trials = 0;
  /// Fold digest is taken after this many trials (0 = none).
  std::int64_t digest_prefix = 0;
  std::size_t window = 1;
  /// Keep per-trial and per-prefix digests (the fidelity check).
  bool record = false;
  /// Time the stream-face and fold calls.
  bool traced = false;
};

struct StreamOutcome {
  sskel::McSummary summary;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t measured = 0;  // folds inside the timed window
  double measured_seconds = 0.0;
  double wall_seconds = 0.0;  // first offer to last fold
  std::int64_t busy_ns = 0;   // tile-side elapsed_ns, summed
  std::vector<double> trial_ms;
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> trial_digests;
  std::vector<std::uint64_t> prefix_digests;
  TrialCounts counts;

  [[nodiscard]] double trials_per_s() const {
    return measured_seconds > 0.0
               ? static_cast<double>(measured) / measured_seconds
               : 0.0;
  }
};

StreamOutcome run_stream(McTilePlane& plane, const ScenarioFactory& scenario,
                         const KSetRunConfig& config, const StreamPlan& plan) {
  StreamOutcome out;
  out.summary.scenario = scenario.name();
  out.summary.bytes_measured = config.measure_bytes;

  const std::int64_t start = now_ns();
  const auto deadline =
      start + static_cast<std::int64_t>(plan.seconds * 1e9);
  std::int64_t window_end = start;
  std::int64_t last_fold = start;

  const McTilePlane::StreamSink sink = [&](std::uint64_t index,
                                           const ScenarioTrial& trial,
                                           std::int64_t elapsed_ns) {
    bool ok = false;
    if (plan.traced) {
      set_trial(sskel::mix_seed(plan.master, index));
      const SpanScope span(Layer::kFold);
      ok = fold_checked(out.summary, trial, config);
    } else {
      ok = fold_checked(out.summary, trial, config);
    }
    ++out.attempted;
    if (!ok) ++out.failed;
    out.trial_ms.push_back(static_cast<double>(elapsed_ns) / 1e6);
    out.busy_ns += elapsed_ns;
    out.counts.add(trial);
    const auto folded = static_cast<std::int64_t>(index) + 1;
    last_fold = now_ns();
    if (last_fold <= deadline || folded <= plan.min_trials) {
      window_end = last_fold;
      out.measured = folded;
    }
    if (folded == plan.digest_prefix) out.digest = summary_digest(out.summary);
    if (plan.record) {
      out.trial_digests.push_back(trial_digest(trial));
      out.prefix_digests.push_back(summary_digest(out.summary));
    }
  };

  plane.stream_begin(config, plan.window);
  std::uint64_t next = 0;
  bool offering = true;
  while (offering || plane.stream_in_flight() > 0) {
    std::int64_t submitted = 0;
    while (offering &&
           plane.stream_in_flight() < static_cast<std::int64_t>(plan.window)) {
      const std::uint64_t seed = sskel::mix_seed(plan.master, next);
      const bool accepted = plan.traced ? traced_offer(plane, next, seed)
                                        : plane.stream_offer(next, seed);
      if (!accepted) break;
      ++next;
      ++submitted;
      if (static_cast<std::int64_t>(next) >= plan.min_trials &&
          now_ns() >= deadline) {
        offering = false;
      }
    }
    const std::size_t collected = plan.traced ? traced_collect(plane, sink)
                                              : plane.stream_collect(sink);
    if (offering && static_cast<std::int64_t>(next) >= plan.min_trials &&
        now_ns() >= deadline) {
      offering = false;
    }
    if (collected == 0 && submitted == 0) std::this_thread::yield();
  }
  plane.stream_end();
  out.measured_seconds = seconds_between(start, window_end);
  out.wall_seconds = seconds_between(start, last_fold);
  return out;
}

/// A plane workload: the real scenario, its traced twin, the config.
struct PlaneWorkload {
  std::function<std::unique_ptr<ScenarioFactory>()> make_real;
  std::function<std::unique_ptr<ScenarioFactory>(const ScenarioFactory&)>
      make_traced;
  KSetRunConfig config;
};

/// Builds the plane over `scenario` and warms it: two trials per tile
/// fill the intern shards and the ProcSet arenas.
std::unique_ptr<McTilePlane> start_plane(const ScenarioFactory& scenario,
                                         const KSetRunConfig& config,
                                         unsigned tiles, bool traced,
                                         Result& result) {
  sskel::McPlaneOptions options;
  options.tiles = tiles;
  auto plane = std::make_unique<McTilePlane>(scenario, options);
  StreamPlan warm;
  warm.master = kWarmupSeed;
  warm.min_trials = 2 * static_cast<std::int64_t>(plane->tiles());
  warm.window = 4 * static_cast<std::size_t>(plane->tiles());
  warm.traced = traced;
  const StreamOutcome out = run_stream(*plane, scenario, config, warm);
  result.attempted += out.attempted;
  result.failed += out.failed;
  return plane;
}

/// True when the traced stream reproduced every trial report and the
/// fold digest of the untraced one over their common prefix.
bool same_trials(const StreamOutcome& untraced, const StreamOutcome& traced,
                 Result& result) {
  const std::size_t common =
      std::min(untraced.trial_digests.size(), traced.trial_digests.size());
  result.note("fidelity_trials", std::to_string(common));
  if (common == 0) return false;
  return std::equal(untraced.trial_digests.begin(),
                    untraced.trial_digests.begin() +
                        static_cast<std::ptrdiff_t>(common),
                    traced.trial_digests.begin()) &&
         untraced.prefix_digests[common - 1] ==
             traced.prefix_digests[common - 1];
}

Result run_plane_workload(const Args& args, const PlaneWorkload& workload) {
  Result result;
  const unsigned tiles = plan_tiles(result);
  const KSetRunConfig& config = workload.config;

  // Set-up: scenario construction, plane and tile start-up, warm-up.
  std::vector<double> setup_s;
  std::unique_ptr<McTilePlane> plane;
  std::unique_ptr<ScenarioFactory> real;
  for (int rep = 0; rep < setup_reps(args); ++rep) {
    plane.reset();
    real.reset();
    const std::int64_t t0 = now_ns();
    real = workload.make_real();
    plane = start_plane(*real, config, tiles, false, result);
    setup_s.push_back(seconds_between(t0, now_ns()));
  }
  note_plane(result, plane->tiles(), plane->placement(), plane->failed_pins());
  const std::size_t window = 4 * static_cast<std::size_t>(plane->tiles());

  StreamPlan plan;
  plan.master = args.seed;
  plan.window = window;
  if (!args.trace) {
    plan.seconds = args.seconds;
    plan.min_trials = min_trials(args);
    plan.digest_prefix = plan.min_trials;
    const StreamOutcome out = run_stream(*plane, *real, config, plan);
    result.attempted += out.attempted;
    result.failed += out.failed;
    result.note("fold_digest", hex(out.digest));
    result.note("fold_digest_trials", std::to_string(plan.digest_prefix));
    EndToEnd e2e;
    e2e.trials_per_s = out.trials_per_s();
    e2e.trial_ms = out.trial_ms;
    e2e.setup_s = setup_s;
    e2e.peak_rss_mb = peak_rss_mb();
    add_end_to_end(result, e2e);
    return result;
  }

  // Traced run: half the time untraced, half traced over the same
  // seeds; the traced half must reproduce the untraced one.
  plan.seconds = args.seconds / 2.0;
  plan.min_trials = std::min<std::int64_t>(12, min_trials(args));
  plan.digest_prefix = plan.min_trials;
  plan.record = true;
  const StreamOutcome untraced = run_stream(*plane, *real, config, plan);
  plane.reset();

  const std::unique_ptr<ScenarioFactory> twin = workload.make_traced(*real);
  auto traced_plane =
      start_plane(*twin, config, tiles, true, result);
  reset();
  sskel::ProcSet::reset_peak_bytes();
  const PlaneMarks before = marks(*traced_plane);
  plan.traced = true;
  const StreamOutcome traced = run_stream(*traced_plane, *twin, config, plan);
  const TraceTotals spans = totals();

  result.attempted += untraced.attempted + traced.attempted;
  result.failed += untraced.failed + traced.failed;
  result.fidelity_ok = same_trials(untraced, traced, result);
  result.note("fold_digest", hex(traced.digest));
  result.note("fold_digest_untraced", hex(untraced.digest));
  result.note("fold_digest_trials", std::to_string(plan.digest_prefix));

  PerLayer layer;
  traced.counts.fill(layer);
  fill_plane_layer(layer, spans, *traced_plane, before, traced.attempted,
                   traced.busy_ns, traced.wall_seconds);
  layer.throughput_ratio = untraced.trials_per_s() > 0.0
                               ? traced.trials_per_s() / untraced.trials_per_s()
                               : 0.0;
  result.note("untraced_trials_per_s", std::to_string(untraced.trials_per_s()));
  result.note("traced_trials_per_s", std::to_string(traced.trials_per_s()));
  add_per_layer(result, layer, spans);
  return result;
}

}  // namespace

Result run_consensus(const Args& args) {
  sskel::RandomPsrcsParams params;
  params.n = 64;
  params.k = 4;
  params.root_components = 4;
  params.max_core_size = 4;
  params.noise_probability = 0.25;
  params.stabilization_round = 4;
  PlaneWorkload workload;
  workload.config.k = params.k;
  workload.make_real = [params] {
    return std::make_unique<sskel::RandomPsrcsScenario>(params);
  };
  workload.make_traced = [params](const ScenarioFactory& real) {
    return std::make_unique<TracedSimScenario>(
        real, [params](std::uint64_t seed) {
          return std::make_unique<sskel::RandomPsrcsSource>(seed, params);
        });
  };
  return run_plane_workload(args, workload);
}

Result run_network(const Args& args) {
  constexpr sskel::ProcId kN = 24;
  sskel::RandomPsrcsParams hubs;
  hubs.n = kN;
  hubs.k = 3;
  hubs.root_components = 3;
  hubs.max_core_size = 3;

  // The links are part of the scenario's construction (set-up), so
  // they are rebuilt on every set-up repetition.
  struct Network {
    sskel::LinkMatrix links;
    sskel::NetConfig net;
  };
  const auto build = [hubs] {
    const sskel::RandomPsrcsSource source(kLinksSeed, hubs);
    Network network{sskel::LinkMatrix::all_flaky(kN, 0.35), {}};
    network.links.upgrade_to_timely(source.stable_skeleton(), 100, 700);
    network.net.round_duration = 1000;
    return network;
  };
  PlaneWorkload workload;
  workload.config.k = hubs.k;
  workload.make_real = [build] {
    Network network = build();
    return std::make_unique<sskel::NetScenario>(std::move(network.links),
                                                std::move(network.net));
  };
  workload.make_traced = [build](const ScenarioFactory& real) {
    Network network = build();
    return std::make_unique<TracedNetScenario>(
        real, std::move(network.links), std::move(network.net));
  };
  return run_plane_workload(args, workload);
}

}  // namespace perfbench
