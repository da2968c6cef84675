// Tests for the ablation variant: the faithful configuration matches
// Algorithm 1 exactly; each disabled line breaks liveness in the way
// the proofs predict; safety (<= k values) survives every ablation.
#include "ablation.hpp"

#include <gtest/gtest.h>

#include "adversary/figure1.hpp"
#include "adversary/random_psrcs.hpp"
#include "kset/runner.hpp"

namespace sskel {
namespace {

RandomPsrcsParams transient_params() {
  RandomPsrcsParams params;
  params.n = 8;
  params.k = 2;
  params.root_components = 2;
  params.stabilization_round = 4;  // transient prefix
  params.noise_probability = 0.3;
  return params;
}

TEST(AblationTest, FaithfulMatchesAlgorithmOne) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    RandomPsrcsSource a(seed, transient_params());
    const AblationRunResult ablation =
        run_ablation(a, AblationFlags{}, 2, 200);

    RandomPsrcsSource b(seed, transient_params());
    KSetRunConfig config;
    config.k = 2;
    config.max_rounds = 200;
    const KSetRunReport reference = run_kset(b, config);

    ASSERT_TRUE(ablation.all_decided);
    ASSERT_TRUE(reference.all_decided);
    EXPECT_EQ(ablation.distinct_values, reference.distinct_values);
    EXPECT_EQ(ablation.last_decision_round, reference.last_decision_round);
  }
}

TEST(AblationTest, NoForwardingStrandsFollowers) {
  // Figure 1: p6 sits outside both root components and can only
  // decide via a forwarded decide message.
  auto source = make_figure1_source();
  AblationFlags flags;
  flags.forward_decides = false;
  const AblationRunResult r = run_ablation(*source, flags, 3, 120);
  EXPECT_FALSE(r.all_decided);
  EXPECT_EQ(r.decided_count, 5);  // both roots decide, p6 never does
}

TEST(AblationTest, NoPurgeBlocksDecisionsAfterTransients) {
  // Without purging, stale transient labels never age out. In the
  // Figure 1 run the transients flow into root component A, so A's
  // members keep a foreign node in their approximation forever and
  // never pass Line 28. Root B saw no transients and still decides;
  // the follower p6 is rescued by B's forwarded decide.
  auto source = make_figure1_source();
  AblationFlags flags;
  flags.purge_old = false;
  const AblationRunResult r = run_ablation(*source, flags, 3, 120);
  EXPECT_FALSE(r.all_decided);
  EXPECT_EQ(r.decided_count, 4);  // {p3, p4, p5} of B, plus p6
}

TEST(AblationTest, NoPruneBlocksDecisionsAfterTransients) {
  auto source = make_figure1_source();
  AblationFlags flags;
  flags.prune_unreachable = false;
  const AblationRunResult r = run_ablation(*source, flags, 3, 120);
  // Stale *nodes* persist even after their edges are purged, so the
  // strong-connectivity test keeps failing.
  EXPECT_FALSE(r.all_decided);
}

TEST(AblationTest, SafetyHoldsUnderEveryAblation) {
  const std::vector<AblationFlags> variants = {
      {true, true, true, false},
      {true, false, true, true},
      {true, true, false, true},
      {false, true, true, true},
      {true, false, false, true},
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const AblationFlags& flags : variants) {
      RandomPsrcsSource source(seed, transient_params());
      const AblationRunResult r = run_ablation(source, flags, 2, 150);
      EXPECT_LE(r.distinct_values, 2)
          << "seed=" << seed << " ablation violated k-agreement";
    }
  }
}

TEST(AblationTest, FaithfulFlagAccessor) {
  EXPECT_TRUE(AblationFlags{}.faithful());
  AblationFlags f;
  f.purge_old = false;
  EXPECT_FALSE(f.faithful());
}

}  // namespace
}  // namespace sskel
