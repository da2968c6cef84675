// The scheduler-equivalence tripwire for Monte-Carlo on worker tiles
// (DESIGN.md §13), extending the §12 plane-equivalence pattern: the
// same (scenario, master seed, trials, config) must produce
// trial-derived McSummary fields bit-identical to the serial fold
// (tests/oracles/serial_trials.hpp) at tile counts {1, 2, 4}, through
// a one-slot stream window, and on a net-backed scenario. Only
// service-level fields — intern/arena/peak counters and tile
// provenance — may differ. Also covers the engine-scratch reuse
// contract (run_trial with scratch == without), run()'s bounded result
// window, idle tiles claiming trials past a blocked one, tile
// placement, and the SSKEL_THREADS tile-count cap.
#include "mc/mc_plane.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mc/montecarlo.hpp"
#include "oracles/serial_trials.hpp"
#include "util/rng.hpp"

namespace sskel {
namespace {

void expect_accumulators_equal(const Accumulator& a, const Accumulator& b,
                               const char* field) {
  EXPECT_EQ(a.count(), b.count()) << field;
  EXPECT_EQ(a.sum(), b.sum()) << field;
  EXPECT_EQ(a.mean(), b.mean()) << field;
  EXPECT_EQ(a.min(), b.min()) << field;
  EXPECT_EQ(a.max(), b.max()) << field;
}

/// Bit-equality over every trial-derived field. Service-level fields
/// (intern stats, shard counts, ProcSet peak/live/arena accounting,
/// tiles/placement/failed_pins) are deliberately excluded: they
/// describe the machinery, not the trials.
void expect_summaries_equal(const McSummary& a, const McSummary& b) {
  EXPECT_EQ(a.scenario, b.scenario);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.undecided_runs, b.undecided_runs);
  EXPECT_EQ(a.agreement_violations, b.agreement_violations);
  EXPECT_EQ(a.validity_violations, b.validity_violations);
  EXPECT_EQ(a.bound_violations, b.bound_violations);
  EXPECT_EQ(a.lemma_violation_runs, b.lemma_violation_runs);
  expect_accumulators_equal(a.distinct_values, b.distinct_values,
                            "distinct_values");
  expect_accumulators_equal(a.root_components, b.root_components,
                            "root_components");
  expect_accumulators_equal(a.last_decision_round, b.last_decision_round,
                            "last_decision_round");
  expect_accumulators_equal(a.stabilization_round, b.stabilization_round,
                            "stabilization_round");
  expect_accumulators_equal(a.total_messages, b.total_messages,
                            "total_messages");
  EXPECT_EQ(a.bytes_measured, b.bytes_measured);
  expect_accumulators_equal(a.total_bytes, b.total_bytes, "total_bytes");
  expect_accumulators_equal(a.max_message_bytes, b.max_message_bytes,
                            "max_message_bytes");
  EXPECT_EQ(a.distinct_histogram.to_string(), b.distinct_histogram.to_string());
  EXPECT_EQ(a.root_histogram.to_string(), b.root_histogram.to_string());
  EXPECT_EQ(a.net_backed, b.net_backed);
  expect_accumulators_equal(a.late_messages, b.late_messages,
                            "late_messages");
  expect_accumulators_equal(a.lost_messages, b.lost_messages,
                            "lost_messages");
  expect_accumulators_equal(a.wall_clock_ms, b.wall_clock_ms,
                            "wall_clock_ms");
  EXPECT_EQ(a.credit_stalls, b.credit_stalls);
}

PartitionScenario make_partition_scenario(ProcId n) {
  PartitionParams params;
  params.blocks = even_blocks(n, 2);
  params.cross_noise_probability = 0.15;
  params.stabilization_round = 4;
  return PartitionScenario(params);
}

KSetRunConfig base_config() {
  KSetRunConfig config;
  config.k = 2;
  config.tail_rounds = 2;
  return config;
}

NetScenario flaky_hub_scenario(ProcId n) {
  // A timely hub over a flaky remainder: trials see real lates and
  // losses, so the network accumulators carry signal worth pinning.
  Digraph stable(n);
  stable.add_self_loops();
  for (ProcId p = 0; p < n; ++p) stable.add_edge(0, p);
  LinkMatrix links = LinkMatrix::all_flaky(n, 0.6);
  links.upgrade_to_timely(stable, 100, 700);
  NetConfig net;
  net.round_duration = 1000;
  for (ProcId p = 0; p < n; ++p) {
    net.skews.push_back((static_cast<SimTime>(p) * 113) % 800);
  }
  return NetScenario(std::move(links), net);
}

KSetRunConfig net_config() {
  KSetRunConfig config;
  config.k = 2;
  config.max_rounds = 40;
  return config;
}

/// Wraps a scenario so that the trial with `blocker_seed` waits, for
/// at most 10 s, until `others` other trials have run, which tiles
/// other than its own must do. Test-only: the counters are the kind of
/// shared state a real scenario must not keep, and they only observe
/// timing, never a trial's result.
class WaitForOthersScenario final : public ScenarioFactory {
 public:
  WaitForOthersScenario(const ScenarioFactory& inner,
                        std::uint64_t blocker_seed, int others)
      : inner_(inner), blocker_seed_(blocker_seed), others_(others) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] ProcId n() const override { return inner_.n(); }
  void append_fingerprint(std::vector<std::uint8_t>& out) const override {
    inner_.append_fingerprint(out);
  }
  [[nodiscard]] ScenarioTrial run_trial(
      std::uint64_t seed, const KSetRunConfig& config) const override {
    return run_trial(seed, config, nullptr);
  }
  [[nodiscard]] std::unique_ptr<Scratch> make_scratch() const override {
    return inner_.make_scratch();
  }
  [[nodiscard]] ScenarioTrial run_trial(std::uint64_t seed,
                                        const KSetRunConfig& config,
                                        Scratch* scratch) const override {
    if (seed == blocker_seed_) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (ran_.load() < others_) {
        if (std::chrono::steady_clock::now() >= deadline) {
          timed_out_.store(true);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ScenarioTrial trial = inner_.run_trial(seed, config, scratch);
    if (seed != blocker_seed_) ran_.fetch_add(1);
    return trial;
  }

  [[nodiscard]] bool timed_out() const { return timed_out_.load(); }

 private:
  const ScenarioFactory& inner_;
  std::uint64_t blocker_seed_;
  int others_;
  mutable std::atomic<int> ran_{0};
  mutable std::atomic<bool> timed_out_{false};
};

constexpr std::uint64_t kSeed = 0xC0FFEE5EED;
/// Master seed of the warm-up batch in run_one_trial_per_tile.
constexpr std::uint64_t kWarmSeed = kSeed - 1;

/// Idle tiles claim trials, so a tile whose thread starts late may run
/// none of a batch, and its first trial then grows its scratch. Tests
/// that compare live bytes across batches first run this two-trial
/// batch on a two-tile plane built on `scenario`, whose blocker is
/// trial 0 (seed mix_seed(kWarmSeed, 0)) and which waits for one other
/// trial: trial 1 then runs on the other tile, so each tile runs one.
void run_one_trial_per_tile(McTilePlane& plane,
                            const WaitForOthersScenario& scenario,
                            const KSetRunConfig& config) {
  ASSERT_EQ(plane.tiles(), 2u);
  (void)plane.run(kWarmSeed, 2, config);
  ASSERT_FALSE(scenario.timed_out());
}

// Named for the fork-join pool it once compared against; the reference
// is now the serial fold.
TEST(McTilePlane, PoolVsTilePlaneBitIdentical) {
  const PartitionScenario scenario = make_partition_scenario(10);
  const KSetRunConfig config = base_config();
  const int trials = 24;

  McPlaneOptions options;
  options.tiles = 2;
  McTilePlane plane(scenario, options);
  const McSummary tiled = plane.run(kSeed, trials, config);

  expect_summaries_equal(
      oracles::serial_trials(scenario, kSeed, trials, config), tiled);
  EXPECT_EQ(tiled.tiles, 2);
  EXPECT_EQ(plane.trials_executed(), trials);
}

TEST(McTilePlane, BitIdenticalAcrossTileCounts) {
  const PartitionScenario scenario = make_partition_scenario(8);
  const KSetRunConfig config = base_config();
  const int trials = 20;

  const McSummary serial =
      oracles::serial_trials(scenario, kSeed, trials, config);
  for (unsigned tiles : {1u, 2u, 4u}) {
    McPlaneOptions options;
    options.tiles = tiles;
    McTilePlane plane(scenario, options);
    const McSummary tiled = plane.run(kSeed, trials, config);
    EXPECT_EQ(tiled.tiles, static_cast<std::int64_t>(tiles));
    expect_summaries_equal(serial, tiled);
  }
}

TEST(McTilePlane, WindowOfOneBitIdentical) {
  // A one-slot stream window against 48 trials on 3 tiles: each offer
  // is refused until the previous trial is collected, so the trials
  // take turns in one slot on whichever tile claims them first.
  // Results stay equal to the serial fold, and every refusal counts as
  // a submit stall.
  const PartitionScenario scenario = make_partition_scenario(8);
  const KSetRunConfig config = base_config();
  const int trials = 48;

  McPlaneOptions options;
  options.tiles = 3;
  McTilePlane plane(scenario, options);
  McSummary streamed;
  streamed.scenario = scenario.name();
  streamed.bytes_measured = config.measure_bytes;
  const McTilePlane::StreamSink sink =
      [&](std::uint64_t, const ScenarioTrial& trial, std::int64_t) {
        fold_scenario_trial(streamed, trial, config);
      };
  plane.stream_begin(config, /*window=*/1);
  for (std::uint64_t t = 0; t < static_cast<std::uint64_t>(trials); ++t) {
    while (!plane.stream_offer(t, mix_seed(kSeed, t))) {
      (void)plane.stream_collect(sink);
    }
  }
  plane.stream_flush(sink);
  plane.stream_end();

  expect_summaries_equal(
      oracles::serial_trials(scenario, kSeed, trials, config), streamed);
  // Offering trial t + 1 right after trial t is refused at least once.
  EXPECT_GE(plane.submit_stalls(), trials - 1);
  EXPECT_EQ(McTilePlane::result_stalls(), 0);
}

TEST(McTilePlane, NetTrialsBitIdenticalAcrossTileCounts) {
  // The net-backed scenario: each trial runs a NetRoundDriver inside
  // a tile, and several tiles run such trials side by side.
  // Which tile runs which trial varies from run to run; the summary
  // must not.
  const NetScenario scenario = flaky_hub_scenario(6);
  const KSetRunConfig config = net_config();
  const int trials = 16;

  const McSummary serial =
      oracles::serial_trials(scenario, 0x57EA1, trials, config);
  ASSERT_TRUE(serial.net_backed);
  for (unsigned tiles : {1u, 4u}) {
    McPlaneOptions options;
    options.tiles = tiles;
    McTilePlane plane(scenario, options);
    expect_summaries_equal(serial, plane.run(0x57EA1, trials, config));
  }
}

TEST(McTilePlane, PerTrialCallbackRunsInTrialOrder) {
  // run()'s per-trial hook fires in trial order, and the per-trial
  // stream it sees is the serial fold's at every tile count.
  const NetScenario scenario = flaky_hub_scenario(5);
  const KSetRunConfig config = net_config();
  const int trials = 10;

  std::vector<std::int64_t> serial_messages;
  (void)oracles::serial_trials(
      scenario, 0x57EA2, trials, config,
      [&](std::size_t, const ScenarioTrial& t) {
        serial_messages.push_back(t.kset.total_messages);
      });
  for (unsigned tiles : {1u, 4u}) {
    McPlaneOptions options;
    options.tiles = tiles;
    McTilePlane plane(scenario, options);
    std::vector<std::size_t> order;
    std::vector<std::int64_t> messages;
    const McSummary s =
        plane.run(0x57EA2, trials, config,
                  [&](std::size_t trial, const ScenarioTrial& t) {
                    order.push_back(trial);
                    messages.push_back(t.kset.total_messages);
                  });
    EXPECT_EQ(s.runs, trials);
    ASSERT_EQ(order.size(), static_cast<std::size_t>(trials));
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], i) << "tiles=" << tiles;
    }
    EXPECT_EQ(messages, serial_messages) << "tiles=" << tiles;
  }
}

TEST(McTilePlane, RunWindowKeepsLiveReportsBounded) {
  // run() streams through tiles x kRunWindowPerTile result slots, and a
  // slot's report stays alive until the next batch starts. So the
  // ProcSet payload a batch leaves behind must not grow with the batch.
  // The scenario is a noise-free partition stable from round 1: every
  // trial has the same structures and the same report shape, and the
  // warm-up batch settles the tile scratch, so any growth between the
  // two measured batches is retained reports.
  PartitionParams params;
  params.blocks = even_blocks(4, 2);
  params.cross_noise_probability = 0.0;
  params.stabilization_round = 1;
  const PartitionScenario scenario(params);
  const WaitForOthersScenario warm_scenario(scenario, mix_seed(kWarmSeed, 0),
                                            /*others=*/1);
  const KSetRunConfig config = base_config();
  McPlaneOptions options;
  options.tiles = 2;
  const int window = 2 * static_cast<int>(McTilePlane::kRunWindowPerTile);
  McTilePlane plane(warm_scenario, options);

  run_one_trial_per_tile(plane, warm_scenario, config);
  (void)plane.run(kSeed, 20 * window, config);  // warm-up
  (void)plane.run(kSeed, window, config);
  const std::int64_t live_after_one_window = ProcSet::live_bytes();
  const McSummary twenty = plane.run(kSeed, 20 * window, config);
  EXPECT_LE(ProcSet::live_bytes(), live_after_one_window);
  expect_summaries_equal(
      oracles::serial_trials(scenario, kSeed, 20 * window, config), twenty);
}

TEST(McTilePlane, LiveBytesStayFlatAcrossBatchesOfNewStructures) {
  // The plane lends its trials no intern domain, so batches whose
  // skeletons never repeat leave nothing behind them: the summary
  // reports no intern entries, and the ProcSet bytes still live after
  // a batch (its result window and the tile scratch) do not grow from
  // batch to batch.
  RandomPsrcsParams params;
  params.n = 12;
  params.k = 3;
  const RandomPsrcsScenario scenario(params);
  KSetRunConfig config;
  config.k = 3;
  const WaitForOthersScenario warm_scenario(scenario, mix_seed(kWarmSeed, 0),
                                            /*others=*/1);
  McPlaneOptions options;
  options.tiles = 2;
  McTilePlane plane(warm_scenario, options);
  run_one_trial_per_tile(plane, warm_scenario, config);

  std::vector<std::int64_t> live;
  for (std::uint64_t batch = 0; batch < 4; ++batch) {
    const McSummary summary = plane.run(kSeed + batch, 32, config);
    EXPECT_EQ(summary.intern.entries, 0) << "batch " << batch;
    EXPECT_EQ(summary.intern.hits + summary.intern.misses +
                  summary.intern.overflow_rejects,
              0)
        << "batch " << batch;
    EXPECT_EQ(summary.intern_shards, 0) << "batch " << batch;
    live.push_back(summary.live_proc_set_bytes);
  }
  // The last trial on each tile leaves its scratch holding that
  // trial's decomposition, so batches differ by a few words. Interned
  // skeletons would pile up instead: each batch meets hundreds of new
  // ones.
  for (std::size_t batch = 1; batch < live.size(); ++batch) {
    EXPECT_LE(live[batch], live[0] + live[0] / 8) << "batch " << batch;
  }
  EXPECT_EQ(plane.trials_executed(), 2 + 128);
}

TEST(McTilePlane, ScratchReuseMatchesScratchFreeTrials) {
  // The ScenarioFactory scratch contract, scenario by scenario: a
  // reused engine must replay a trial bit-identically to a fresh one.
  const KSetRunConfig config = base_config();
  const PartitionScenario partition = make_partition_scenario(8);
  const CrashScenario crash(9, 2, 4);
  const RotatingScenario rotating(7);
  RandomPsrcsParams params;
  params.n = 9;
  params.k = 3;
  const RandomPsrcsScenario random_psrcs(params);

  const ScenarioFactory* scenarios[] = {&partition, &crash, &rotating,
                                        &random_psrcs};
  for (const ScenarioFactory* scenario : scenarios) {
    const std::unique_ptr<ScenarioFactory::Scratch> scratch =
        scenario->make_scratch();
    ASSERT_NE(scratch, nullptr) << scenario->name();
    for (std::uint64_t seed : {7u, 19u, 7u, 23u}) {  // includes a repeat
      const ScenarioTrial fresh = scenario->run_trial(seed, config);
      const ScenarioTrial reused =
          scenario->run_trial(seed, config, scratch.get());
      const KSetRunReport& a = fresh.kset;
      const KSetRunReport& b = reused.kset;
      EXPECT_EQ(a.n, b.n) << scenario->name();
      ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << scenario->name();
      for (std::size_t p = 0; p < a.outcomes.size(); ++p) {
        EXPECT_EQ(a.outcomes[p].decided, b.outcomes[p].decided)
            << scenario->name() << " p=" << p;
        EXPECT_EQ(a.outcomes[p].decision, b.outcomes[p].decision)
            << scenario->name() << " p=" << p;
        EXPECT_EQ(a.outcomes[p].decision_round, b.outcomes[p].decision_round)
            << scenario->name() << " p=" << p;
      }
      EXPECT_EQ(a.paths, b.paths) << scenario->name();
      EXPECT_EQ(a.rounds_executed, b.rounds_executed) << scenario->name();
      EXPECT_EQ(a.final_skeleton, b.final_skeleton) << scenario->name();
      EXPECT_EQ(a.skeleton_last_change, b.skeleton_last_change)
          << scenario->name();
      EXPECT_EQ(a.root_components_final, b.root_components_final)
          << scenario->name();
      EXPECT_EQ(a.total_messages, b.total_messages) << scenario->name();
    }
  }
}

TEST(McTilePlaneStream, ManualStreamFoldMatchesBatchRun) {
  // The streaming API is the batch API unrolled: offering the same
  // seeds through stream_begin/offer/flush and left-folding in the
  // sink must reproduce run()'s trial-derived fields bit-for-bit,
  // even with a window far smaller than the trial count.
  const PartitionScenario scenario = make_partition_scenario(8);
  const KSetRunConfig config = base_config();
  const int trials = 30;

  McTilePlane batch_plane(scenario, McPlaneOptions{});
  const McSummary batch = batch_plane.run(kSeed, trials, config);

  McTilePlane plane(scenario, McPlaneOptions{});
  McSummary streamed;
  streamed.scenario = scenario.name();
  streamed.bytes_measured = config.measure_bytes;
  std::uint64_t delivered = 0;
  const McTilePlane::StreamSink sink =
      [&](std::uint64_t index, const ScenarioTrial& trial,
          std::int64_t elapsed_ns) {
        EXPECT_EQ(index, delivered);  // contiguous, in trial order
        EXPECT_GE(elapsed_ns, 0);
        fold_scenario_trial(streamed, trial, config);
        ++delivered;
      };
  plane.stream_begin(config, /*window=*/4);
  for (std::uint64_t t = 0; t < static_cast<std::uint64_t>(trials);) {
    if (plane.stream_offer(t, mix_seed(kSeed, t))) {
      ++t;
    } else {
      EXPECT_LE(plane.stream_in_flight(), 4);  // window bounds in-flight
      (void)plane.stream_collect(sink);
    }
  }
  plane.stream_flush(sink);
  EXPECT_EQ(plane.stream_in_flight(), 0);
  plane.stream_end();

  EXPECT_EQ(delivered, static_cast<std::uint64_t>(trials));
  expect_summaries_equal(batch, streamed);
}

TEST(McTilePlaneStream, AbortDiscardsInFlightAndPlaneStaysUsable) {
  const PartitionScenario scenario = make_partition_scenario(8);
  const KSetRunConfig config = base_config();

  McTilePlane plane(scenario, McPlaneOptions{});
  plane.stream_begin(config, /*window=*/8);
  std::uint64_t offered = 0;
  while (offered < 6 && plane.stream_offer(offered, mix_seed(kSeed, offered))) {
    ++offered;
  }
  EXPECT_GT(offered, 0u);
  plane.stream_abort();  // the crash path: drain, deliver nothing
  EXPECT_EQ(plane.stream_in_flight(), 0);
  plane.stream_end();

  // The aborted stream leaves no residue: a batch run on the same
  // plane still matches a fresh plane bit-for-bit.
  const McSummary after = plane.run(kSeed, 12, config);
  McTilePlane fresh(scenario, McPlaneOptions{});
  expect_summaries_equal(fresh.run(kSeed, 12, config), after);
}

TEST(McTilePlaneStream, FirstIndexOffsetResumesMidSequence) {
  // Resume semantics: a stream opened at first_index folds the same
  // trials [first, total) that the tail of a full batch folds.
  const PartitionScenario scenario = make_partition_scenario(8);
  const KSetRunConfig config = base_config();
  const std::uint64_t first = 7;
  const std::uint64_t total = 19;

  McTilePlane plane(scenario, McPlaneOptions{});
  McSummary tail;
  tail.scenario = scenario.name();
  tail.bytes_measured = config.measure_bytes;
  const McTilePlane::StreamSink sink =
      [&](std::uint64_t, const ScenarioTrial& trial, std::int64_t) {
        fold_scenario_trial(tail, trial, config);
      };
  plane.stream_begin(config, /*window=*/4, first);
  for (std::uint64_t t = first; t < total;) {
    if (plane.stream_offer(t, mix_seed(kSeed, t))) {
      ++t;
    } else {
      (void)plane.stream_collect(sink);
    }
  }
  plane.stream_flush(sink);
  plane.stream_end();

  McSummary expected;
  expected.scenario = scenario.name();
  expected.bytes_measured = config.measure_bytes;
  for (std::uint64_t t = first; t < total; ++t) {
    fold_scenario_trial(expected, scenario.run_trial(mix_seed(kSeed, t), config),
                        config);
  }
  expect_summaries_equal(expected, tail);
}

TEST(McTilePlaneStream, IdleTilesClaimTrialsPastABlockedOne) {
  // Trial 0 waits until trials 1..W-1 of a W = 6 window have run. Idle
  // tiles must take those trials while trial 0's tile is busy: a plane
  // that deals trials round-robin into per-tile queues puts trial 3
  // behind trial 0 on 3 tiles, and the wait runs out. The sink still
  // sees every trial in index order, folded as the serial fold does.
  const std::uint64_t window = 6;
  const PartitionScenario inner = make_partition_scenario(8);
  const WaitForOthersScenario scenario(inner, mix_seed(kSeed, 0),
                                       static_cast<int>(window) - 1);
  const KSetRunConfig config = base_config();
  McPlaneOptions options;
  options.tiles = 3;
  McTilePlane plane(scenario, options);
  ASSERT_EQ(plane.tiles(), 3u);

  McSummary streamed;
  streamed.scenario = scenario.name();
  streamed.bytes_measured = config.measure_bytes;
  std::vector<std::uint64_t> order;
  const McTilePlane::StreamSink sink =
      [&](std::uint64_t index, const ScenarioTrial& trial, std::int64_t) {
        order.push_back(index);
        fold_scenario_trial(streamed, trial, config);
      };
  plane.stream_begin(config, window);
  for (std::uint64_t t = 0; t < window; ++t) {
    ASSERT_TRUE(plane.stream_offer(t, mix_seed(kSeed, t)));
  }
  plane.stream_flush(sink);
  plane.stream_end();

  EXPECT_FALSE(scenario.timed_out())
      << "trial 0 waited 10 s for trials queued behind it";
  ASSERT_EQ(order.size(), window);
  for (std::uint64_t i = 0; i < window; ++i) EXPECT_EQ(order[i], i);
  expect_summaries_equal(
      oracles::serial_trials(inner, kSeed, static_cast<int>(window), config),
      streamed);
}

TEST(McTilePlane, PlacementEmptyWhenNotPinning) {
  const PartitionScenario scenario = make_partition_scenario(8);
  McPlaneOptions options;
  options.tiles = 2;
  McTilePlane plane(scenario, options);
  EXPECT_TRUE(plane.placement().empty());
  EXPECT_EQ(plane.failed_pins(), 0u);
}

TEST(McTilePlane, ExplicitCpuPlacementIsCycledAcrossTiles) {
  const PartitionScenario scenario = make_partition_scenario(8);
  McPlaneOptions options;
  options.tiles = 3;
  options.pin_tiles = true;
  options.cpu_placement = {0};  // CPU 0 always exists
  McTilePlane plane(scenario, options);
  ASSERT_EQ(plane.placement().size(), 3u);
  for (int cpu : plane.placement()) EXPECT_EQ(cpu, 0);
  // Pinning to CPU 0 is legal on any host that lets us pin at all, so
  // either every pin landed or the runner forbids affinity entirely.
  const McSummary summary = plane.run(kSeed, 2, base_config());
  EXPECT_EQ(summary.runs, 2);
  EXPECT_EQ(summary.tile_placement, "0,0,0");
  EXPECT_LE(plane.failed_pins(), 3u);
}

TEST(McTilePlane, TopologyDerivedPlacementCoversEveryTile) {
  const PartitionScenario scenario = make_partition_scenario(8);
  McPlaneOptions options;
  options.tiles = 4;
  options.pin_tiles = true;  // placement from probe_cpu_topology()
  McTilePlane plane(scenario, options);
  ASSERT_EQ(plane.placement().size(), 4u);
  for (int cpu : plane.placement()) EXPECT_GE(cpu, 0);
  EXPECT_EQ(plane.run(kSeed, 16, base_config()).runs, 16);
}

// The SSKEL_THREADS parse/clamp: the requested == 0 path of
// tiles_from_env_value. The suite name dates from when this clamp sized
// the fork-join worker pool.
TEST(ParallelForTest, ThreadsFromEnvValueParsesAndClamps) {
  // In range: taken as-is.
  EXPECT_EQ(tiles_from_env_value(0, "4", 16), 4u);
  EXPECT_EQ(tiles_from_env_value(0, "1", 16), 1u);
  EXPECT_EQ(tiles_from_env_value(0, "16", 16), 16u);
  // Above hardware: clamped down.
  EXPECT_EQ(tiles_from_env_value(0, "64", 8), 8u);
  // Trailing whitespace is fine; trailing garbage is not.
  EXPECT_EQ(tiles_from_env_value(0, "4 ", 16), 4u);
  EXPECT_EQ(tiles_from_env_value(0, "4x", 16), 16u);
  // Unset, empty, zero, negative, junk: fall back to hardware.
  EXPECT_EQ(tiles_from_env_value(0, nullptr, 12), 12u);
  EXPECT_EQ(tiles_from_env_value(0, "", 12), 12u);
  EXPECT_EQ(tiles_from_env_value(0, "0", 12), 12u);
  EXPECT_EQ(tiles_from_env_value(0, "-3", 12), 12u);
  EXPECT_EQ(tiles_from_env_value(0, "lots", 12), 12u);
  // A zero hardware report (the standard allows it) still yields >= 1.
  EXPECT_EQ(tiles_from_env_value(0, "4", 0), 1u);
  EXPECT_EQ(tiles_from_env_value(0, nullptr, 0), 1u);
}

TEST(McTilePlaneEnv, TilesFromEnvValuePureCases) {
  // requested == 0: the env value clamped to hardware, else hardware
  // (the full parse/clamp table is ThreadsFromEnvValueParsesAndClamps).
  EXPECT_EQ(tiles_from_env_value(0, nullptr, 8), 8u);
  EXPECT_EQ(tiles_from_env_value(0, "3", 8), 3u);
  EXPECT_EQ(tiles_from_env_value(0, "12", 8), 8u);  // clamped to hw
  // Explicit request: capped by the env, never hardware-clamped.
  EXPECT_EQ(tiles_from_env_value(4, nullptr, 1), 4u);
  EXPECT_EQ(tiles_from_env_value(4, "", 1), 4u);
  EXPECT_EQ(tiles_from_env_value(4, "2", 1), 2u);
  EXPECT_EQ(tiles_from_env_value(4, "99", 1), 4u);
  EXPECT_EQ(tiles_from_env_value(4, "4", 1), 4u);
  // Garbage / non-positive env values leave the request alone.
  EXPECT_EQ(tiles_from_env_value(4, "abc", 1), 4u);
  EXPECT_EQ(tiles_from_env_value(4, "2x", 1), 4u);
  EXPECT_EQ(tiles_from_env_value(4, "0", 1), 4u);
  EXPECT_EQ(tiles_from_env_value(4, "-3", 1), 4u);
  EXPECT_EQ(tiles_from_env_value(4, "2 ", 1), 2u);  // trailing space ok
}

TEST(McTilePlaneEnv, SskelThreadsCapsTileCount) {
  // The live-env path: SSKEL_THREADS=1 must cap an explicit 4-tile
  // request down to 1 (single concurrency knob).
  ASSERT_EQ(setenv("SSKEL_THREADS", "1", 1), 0);
  EXPECT_EQ(resolve_tile_count(4), 1u);
  const PartitionScenario scenario = make_partition_scenario(8);
  McPlaneOptions options;
  options.tiles = 4;
  McTilePlane plane(scenario, options);
  EXPECT_EQ(plane.tiles(), 1u);
  ASSERT_EQ(unsetenv("SSKEL_THREADS"), 0);
  EXPECT_EQ(resolve_tile_count(4), 4u);
}

}  // namespace
}  // namespace sskel
