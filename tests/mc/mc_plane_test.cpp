// The scheduler-equivalence tripwire for Monte-Carlo on the tile
// plane (DESIGN.md §13), extending the §12 plane-equivalence pattern:
// the same (scenario, master seed, trials, config) must produce
// trial-derived McSummary fields bit-identical to the serial fold
// (tests/oracles/serial_trials.hpp) at tile counts {1, 2, 4}, under a
// tiny-ring backpressure configuration, and on a net-backed scenario.
// Only service-level fields — intern/arena/peak counters and tile
// provenance — may differ. Also covers the engine-scratch reuse
// contract (run_trial with scratch == without), run()'s bounded result
// window, and the SSKEL_THREADS tile-count cap.
#include "mc/mc_plane.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
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

constexpr std::uint64_t kSeed = 0xC0FFEE5EED;

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

TEST(McTilePlane, TinyRingBackpressureBitIdentical) {
  // Depth-2 rings against 48 trials on 3 tiles: the dispatcher and
  // tiles must ride the credit gates without reordering or dropping a
  // trial. Results stay equal to the serial fold.
  const PartitionScenario scenario = make_partition_scenario(8);
  const KSetRunConfig config = base_config();
  const int trials = 48;

  McPlaneOptions options;
  options.tiles = 3;
  options.ring_depth = 2;
  options.lazy = 1;
  McTilePlane plane(scenario, options);
  const McSummary tiled = plane.run(kSeed, trials, config);
  expect_summaries_equal(
      oracles::serial_trials(scenario, kSeed, trials, config), tiled);
}

TEST(McTilePlane, NetTrialsBitIdenticalAcrossTileCounts) {
  // The net-backed scenario: each trial runs the ring message plane
  // inside a tile, and several tiles run such trials side by side.
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
  // run() streams through tiles x ring_depth result slots, and a slot's
  // report stays alive until the next batch starts. So the ProcSet
  // payload a batch leaves behind must not grow with the batch. The
  // scenario is a noise-free partition stable from round 1: every
  // trial has the same structures and the same report shape, and the
  // warm-up batch settles the intern domain, so any growth between the
  // two measured batches is retained reports.
  PartitionParams params;
  params.blocks = even_blocks(4, 2);
  params.cross_noise_probability = 0.0;
  params.stabilization_round = 1;
  const PartitionScenario scenario(params);
  const KSetRunConfig config = base_config();
  McPlaneOptions options;
  options.tiles = 2;
  options.ring_depth = 4;
  const int window = 8;  // tiles x ring_depth
  McTilePlane plane(scenario, options);

  (void)plane.run(kSeed, 20 * window, config);  // warm-up
  (void)plane.run(kSeed, window, config);
  const std::int64_t live_after_one_window = ProcSet::live_bytes();
  const McSummary twenty = plane.run(kSeed, 20 * window, config);
  EXPECT_LE(ProcSet::live_bytes(), live_after_one_window);
  expect_summaries_equal(
      oracles::serial_trials(scenario, kSeed, 20 * window, config), twenty);
}

TEST(McTilePlane, PersistentServiceReusesInternAcrossBatches) {
  // The point of the persistent service: batch 2 of the same scenario
  // resolves structures against the shards batch 1 populated — entry
  // count stops growing while hits keep climbing. Trial-derived
  // fields stay bit-identical (same seeds).
  const PartitionScenario scenario = make_partition_scenario(10);
  const KSetRunConfig config = base_config();
  McPlaneOptions options;
  options.tiles = 2;
  McTilePlane plane(scenario, options);

  const McSummary first = plane.run(kSeed, 16, config);
  const McSummary second = plane.run(kSeed, 16, config);
  expect_summaries_equal(first, second);
  // Cumulative service-level counters: no new structures in batch 2...
  EXPECT_EQ(second.intern.entries, first.intern.entries);
  // ...while resolutions kept landing as hits.
  EXPECT_GT(second.intern.hits, first.intern.hits);
  EXPECT_EQ(plane.trials_executed(), 32);
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
