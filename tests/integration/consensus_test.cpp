// The Sec. V remark: "the algorithm actually solves consensus in
// sufficiently well-behaved runs" — whenever the stable skeleton has a
// single root component, all processes decide one value. Also covers
// the paper's motivating partitioned-consensus scenario.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>

#include "adversary/partition.hpp"
#include "adversary/random_psrcs.hpp"
#include "kset/runner.hpp"

namespace sskel {
namespace {

TEST(ConsensusTest, SingleRootComponentImpliesConsensus) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RandomPsrcsParams params;
    params.n = 10;
    params.k = 3;               // predicate allows up to 3 values...
    params.root_components = 1;  // ...but the topology has one root
    params.stabilization_round = 4;
    RandomPsrcsSource source(seed, params);
    KSetRunConfig config;
    config.k = 1;  // consensus!
    const KSetRunReport report = run_kset(source, config);
    ASSERT_TRUE(report.all_decided) << "seed " << seed;
    EXPECT_EQ(report.root_components_final.size(), 1u);
    EXPECT_EQ(report.distinct_values, 1) << "seed " << seed;
    EXPECT_TRUE(report.verdict.all_hold());
  }
}

// gtest names each case after the raw bytes of a parameter that has no
// printer. With `int m` the struct had four padding bytes after m,
// uninitialised and different in every process, so the case names
// changed from run to run. A 64-bit m leaves no padding and prints the
// same bytes as a zero-padded int.
struct PartitionCase {
  std::int64_t m;
  double noise;
};

class PartitionSweep : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(PartitionSweep, ConsensusPerPartition) {
  const int m = static_cast<int>(GetParam().m);
  const double noise = GetParam().noise;
  const ProcId n = 12;
  PartitionParams params;
  params.blocks = even_blocks(n, m);
  params.cross_noise_probability = noise;
  params.stabilization_round = 5;
  PartitionSource source(99, params);

  KSetRunConfig config;
  config.k = m;
  config.tail_rounds = 4;
  const KSetRunReport report = run_kset(source, config);
  ASSERT_TRUE(report.all_decided);
  EXPECT_TRUE(report.verdict.all_hold());
  EXPECT_EQ(report.root_components_final.size(),
            static_cast<std::size_t>(m));

  // Per-partition consensus holds regardless of transient cross-noise:
  // every block is one strongly connected component of the stable
  // skeleton, and Lemma 14 equalizes estimates inside a component.
  for (const ProcSet& block : source.blocks()) {
    std::set<Value> block_decisions;
    for (ProcId p : block) {
      block_decisions.insert(
          report.outcomes[static_cast<std::size_t>(p)].decision);
    }
    EXPECT_EQ(block_decisions.size(), 1u);
  }
  EXPECT_LE(report.distinct_values, m);

  if (noise == 0.0) {
    // With no cross traffic ever, minima cannot leak across blocks:
    // each block decides one of its *own* proposals and the run
    // realizes exactly m values.
    EXPECT_EQ(report.distinct_values, m);
    for (const ProcSet& block : source.blocks()) {
      std::set<Value> block_proposals;
      Value decided = kNoValue;
      for (ProcId p : block) {
        block_proposals.insert(
            report.outcomes[static_cast<std::size_t>(p)].proposal);
        decided = report.outcomes[static_cast<std::size_t>(p)].decision;
      }
      EXPECT_TRUE(block_proposals.count(decided) > 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionSweep,
    ::testing::Values(PartitionCase{1, 0.0}, PartitionCase{2, 0.0},
                      PartitionCase{3, 0.0}, PartitionCase{4, 0.0},
                      PartitionCase{2, 0.4}, PartitionCase{3, 0.4},
                      PartitionCase{4, 0.4}),
    [](const ::testing::TestParamInfo<PartitionCase>& pinfo) {
      return "m" + std::to_string(pinfo.param.m) + "_noise" +
             std::to_string(static_cast<int>(pinfo.param.noise * 100));
    });

}  // namespace
}  // namespace sskel
