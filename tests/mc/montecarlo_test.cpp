// Tests for the Monte-Carlo aggregation over random-Psrcs trials.
#include "mc/montecarlo.hpp"

#include <gtest/gtest.h>

#include "mc/mc_plane.hpp"

namespace sskel {
namespace {

McSummary run_random_psrcs(std::uint64_t seed, int trials,
                           const RandomPsrcsParams& params,
                           const KSetRunConfig& config, unsigned tiles) {
  const RandomPsrcsScenario scenario(params);
  McPlaneOptions options;
  options.tiles = tiles;
  McTilePlane plane(scenario, options);
  return plane.run(seed, trials, config);
}

TEST(MonteCarloTest, AggregatesCleanTrials) {
  RandomPsrcsParams params;
  params.n = 6;
  params.k = 2;
  params.root_components = 2;
  KSetRunConfig config;
  config.k = 2;
  const McSummary s = run_random_psrcs(123, 20, params, config, 2);
  EXPECT_EQ(s.runs, 20);
  EXPECT_EQ(s.undecided_runs, 0);
  EXPECT_EQ(s.agreement_violations, 0);
  EXPECT_EQ(s.validity_violations, 0);
  EXPECT_EQ(s.bound_violations, 0);
  EXPECT_EQ(s.distinct_values.count(), 20);
  EXPECT_LE(s.distinct_values.max(), 2.0);       // k-agreement
  EXPECT_LE(s.root_components.max(), 2.0);       // Theorem 1
  EXPECT_GE(s.root_components.min(), 1.0);
  EXPECT_EQ(s.distinct_histogram.total(), 20);
}

TEST(MonteCarloTest, DeterministicAcrossThreadCounts) {
  RandomPsrcsParams params;
  params.n = 5;
  params.k = 2;
  params.root_components = 2;
  KSetRunConfig config;
  config.k = 2;
  const McSummary a = run_random_psrcs(77, 12, params, config, 1);
  const McSummary b = run_random_psrcs(77, 12, params, config, 4);
  EXPECT_DOUBLE_EQ(a.distinct_values.mean(), b.distinct_values.mean());
  EXPECT_DOUBLE_EQ(a.last_decision_round.mean(), b.last_decision_round.mean());
  EXPECT_DOUBLE_EQ(a.total_messages.sum(), b.total_messages.sum());
  EXPECT_EQ(a.distinct_histogram.to_string(), b.distinct_histogram.to_string());
}

TEST(MonteCarloTest, ZeroTrials) {
  RandomPsrcsParams params;
  KSetRunConfig config;
  const McSummary s = run_random_psrcs(1, 0, params, config, 1);
  EXPECT_EQ(s.runs, 0);
}

}  // namespace
}  // namespace sskel
