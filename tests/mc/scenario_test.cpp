// Tests for the scenario-driven Monte-Carlo engine: heterogeneous
// factories (crash, partition, rotating, network-backed) all aggregate
// through the one McTilePlane::run code path, byte accumulators are
// gated on measure_bytes, and the trial hot loop constructs no
// per-round graphs.
#include "mc/scenario.hpp"

#include <gtest/gtest.h>

#include "adversary/random_psrcs.hpp"
#include "mc/mc_plane.hpp"
#include "mc/montecarlo.hpp"
#include "util/rng.hpp"

namespace sskel {
namespace {

McSummary run_trials(const ScenarioFactory& scenario, std::uint64_t seed,
                     int trials, const KSetRunConfig& config, unsigned tiles,
                     const TrialCallback& per_trial = {}) {
  McPlaneOptions options;
  options.tiles = tiles;
  McTilePlane plane(scenario, options);
  return plane.run(seed, trials, config, per_trial);
}

TEST(ScenarioTest, CrashScenarioReachesConsensus) {
  // One root component (the never-crashed set) -> consensus, k = 1.
  const CrashScenario scenario(6, /*crashes=*/2, /*max_crash_round=*/3);
  EXPECT_EQ(scenario.name(), "crash");
  EXPECT_EQ(scenario.n(), 6);
  KSetRunConfig config;
  config.k = 1;
  const McSummary s = run_trials(scenario, 42, 8, config, 2);
  EXPECT_EQ(s.scenario, "crash");
  EXPECT_EQ(s.runs, 8);
  EXPECT_EQ(s.undecided_runs, 0);
  EXPECT_EQ(s.agreement_violations, 0);
  EXPECT_EQ(s.validity_violations, 0);
  EXPECT_FALSE(s.net_backed);
  EXPECT_LE(s.distinct_values.max(), 1.0);
}

TEST(ScenarioTest, PartitionScenarioHonorsBlockCount) {
  PartitionParams params;
  params.blocks = even_blocks(8, 2);
  params.cross_noise_probability = 0.3;
  params.stabilization_round = 3;
  const PartitionScenario scenario(params);
  EXPECT_EQ(scenario.n(), 8);
  KSetRunConfig config;
  config.k = 2;
  const McSummary s = run_trials(scenario, 7, 6, config, 2);
  EXPECT_EQ(s.runs, 6);
  EXPECT_EQ(s.undecided_runs, 0);
  EXPECT_EQ(s.agreement_violations, 0);
  // Two complete blocks: exactly 2 root components in every trial.
  EXPECT_DOUBLE_EQ(s.root_components.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.root_components.max(), 2.0);
}

TEST(ScenarioTest, NetScenarioIsNetBacked) {
  NetConfig net;
  net.round_duration = 1000;
  const NetScenario scenario(LinkMatrix::all_timely(5, 100, 800), net);
  EXPECT_EQ(scenario.name(), "net");
  KSetRunConfig config;
  config.k = 1;
  const McSummary s = run_trials(scenario, 11, 4, config, 2);
  EXPECT_EQ(s.runs, 4);
  EXPECT_TRUE(s.net_backed);
  EXPECT_EQ(s.undecided_runs, 0);
  EXPECT_EQ(s.agreement_violations, 0);
  EXPECT_LE(s.distinct_values.max(), 1.0);  // all-timely -> consensus
  EXPECT_EQ(s.late_messages.count(), 4);
  EXPECT_GT(s.wall_clock_ms.min(), 0.0);
}

TEST(ScenarioTest, RotatingScenarioStaysValid) {
  // Psrcs fails by design (the negative control): agreement may
  // degrade, but validity is predicate-free and must hold.
  const RotatingScenario scenario(5);
  EXPECT_EQ(scenario.name(), "rotating-star");
  KSetRunConfig config;
  config.k = 1;
  const McSummary s = run_trials(scenario, 3, 6, config, 2);
  EXPECT_EQ(s.runs, 6);
  EXPECT_EQ(s.validity_violations, 0);
  EXPECT_EQ(s.undecided_runs, 0);
}

TEST(ScenarioTest, PerTrialCallbackRunsInTrialOrder) {
  const CrashScenario scenario(5, 1, 2);
  KSetRunConfig config;
  config.k = 1;
  std::vector<std::size_t> indices;
  const McSummary s = run_trials(
      scenario, 9, 5, config, 2,
      [&](std::size_t t, const ScenarioTrial& trial) {
        indices.push_back(t);
        EXPECT_FALSE(trial.net_backed);
        EXPECT_TRUE(trial.kset.all_decided);
      });
  EXPECT_EQ(s.runs, 5);
  EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ScenarioTest, ByteAccumulatorsGatedOnMeasureBytes) {
  RandomPsrcsParams params;
  params.n = 5;
  params.k = 2;
  params.root_components = 2;
  const RandomPsrcsScenario scenario(params);

  KSetRunConfig off;
  off.k = 2;
  const McSummary without = run_trials(scenario, 5, 4, off, 1);
  EXPECT_FALSE(without.bytes_measured);
  EXPECT_EQ(without.total_bytes.count(), 0);
  EXPECT_EQ(without.max_message_bytes.count(), 0);

  KSetRunConfig on = off;
  on.measure_bytes = true;
  const McSummary with = run_trials(scenario, 5, 4, on, 1);
  EXPECT_TRUE(with.bytes_measured);
  EXPECT_EQ(with.total_bytes.count(), 4);
  EXPECT_GT(with.total_bytes.min(), 0.0);
  EXPECT_GT(with.max_message_bytes.min(), 0.0);
}

TEST(ScenarioTest, DeterministicAcrossThreadCounts) {
  PartitionParams params;
  params.blocks = even_blocks(6, 2);
  params.cross_noise_probability = 0.4;
  params.stabilization_round = 4;
  const PartitionScenario scenario(params);
  KSetRunConfig config;
  config.k = 2;
  const McSummary a = run_trials(scenario, 21, 10, config, 1);
  const McSummary b = run_trials(scenario, 21, 10, config, 4);
  EXPECT_DOUBLE_EQ(a.distinct_values.mean(), b.distinct_values.mean());
  EXPECT_DOUBLE_EQ(a.last_decision_round.mean(), b.last_decision_round.mean());
  EXPECT_DOUBLE_EQ(a.total_messages.sum(), b.total_messages.sum());
  EXPECT_EQ(a.root_histogram.to_string(), b.root_histogram.to_string());
}

TEST(ScenarioTest, LegacyEntryPointMatchesScenarioEngine) {
  // The original random-Psrcs entry point was a loop of run_kset over
  // RandomPsrcsSource(mix_seed(seed, t)); the scenario engine must
  // reproduce it trial for trial.
  RandomPsrcsParams params;
  params.n = 6;
  params.k = 2;
  params.root_components = 2;
  KSetRunConfig config;
  config.k = 2;
  McSummary legacy;
  for (std::uint64_t t = 0; t < 8; ++t) {
    RandomPsrcsSource source(mix_seed(123, t), params);
    ScenarioTrial trial;
    trial.kset = run_kset(source, config);
    fold_scenario_trial(legacy, trial, config);
  }
  const RandomPsrcsScenario scenario(params);
  const McSummary direct = run_trials(scenario, 123, 8, config, 2);
  EXPECT_EQ(legacy.runs, direct.runs);
  EXPECT_DOUBLE_EQ(legacy.distinct_values.mean(),
                   direct.distinct_values.mean());
  EXPECT_DOUBLE_EQ(legacy.total_messages.sum(), direct.total_messages.sum());
  EXPECT_EQ(legacy.root_histogram.to_string(),
            direct.root_histogram.to_string());
}

TEST(ScenarioTest, TrialHotLoopConstructsNoPerRoundGraphs) {
  // Two runs of the same trial, differing only in how many rounds they
  // execute (tail_rounds 4 vs 40): if the per-round path constructed
  // any Digraph, the longer run would construct strictly more. Equal
  // construction deltas prove the hot loop is allocation-free.
  RandomPsrcsParams params;
  params.n = 8;
  params.k = 2;
  params.root_components = 2;
  params.noise_probability = 0.3;

  const auto constructions_for = [&](Round tail) {
    RandomPsrcsSource source(99, params);
    KSetRunConfig config;
    config.k = 2;
    config.tail_rounds = tail;
    const std::int64_t before = Digraph::graphs_constructed();
    const KSetRunReport report = run_kset(source, config);
    const std::int64_t delta = Digraph::graphs_constructed() - before;
    EXPECT_TRUE(report.all_decided);
    EXPECT_GE(report.rounds_executed, tail);
    return delta;
  };

  EXPECT_EQ(constructions_for(4), constructions_for(40));
}

}  // namespace
}  // namespace sskel
