// Tripwires for the Bernoulli noise kernel (adversary/noise.hpp): the
// word-parallel kernel must land the edges the pairwise loops of
// tests/oracles/pairwise_noise.hpp landed and take exactly as many
// draws, at every universe size around the word boundaries and at the
// probabilities where next_bool has edge cases.
#include "adversary/noise.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "adversary/partition.hpp"
#include "adversary/random_psrcs.hpp"
#include "oracles/pairwise_noise.hpp"

namespace sskel {
namespace {

constexpr ProcId kSizes[] = {1, 2, 5, 63, 64, 65, 130};
const double kProbabilities[] = {0.0,  0x1.0p-60, 0.25,
                                 0.3,  0.35,      0.5,
                                 1.0 - 0x1.0p-53, 1.0,
                                 std::numeric_limits<double>::quiet_NaN()};
constexpr Round kStabilization = 4;

std::string label(ProcId n, double p, Round r) {
  return "n=" + std::to_string(n) + " p=" + std::to_string(p) +
         " r=" + std::to_string(r);
}

/// All n nodes, each ordered pair an edge with probability `density`;
/// self-loops only when asked for.
Digraph random_graph(ProcId n, double density, bool self_loops, Rng& rng) {
  Digraph g(n);
  for (ProcId q = 0; q < n; ++q) {
    for (ProcId p = 0; p < n; ++p) {
      if (q == p ? self_loops : rng.next_bool(density)) g.add_edge(q, p);
    }
  }
  return g;
}

/// Runs the kernel and the pairwise loop on copies of `g` from equal
/// generators; both graphs and the next draw must agree.
void expect_same_as_pairwise(const Digraph& g, double p, std::uint64_t seed,
                             std::vector<std::uint64_t>& rows,
                             const std::string& where) {
  Digraph kernel = g;
  Digraph pairwise = g;
  Rng kernel_rng(seed);
  Rng pairwise_rng(seed);
  add_bernoulli_noise(kernel, p, kernel_rng, rows);
  oracles::pairwise_noise(pairwise, p, pairwise_rng);
  EXPECT_EQ(kernel, pairwise) << where;
  EXPECT_EQ(kernel_rng.next_u64(), pairwise_rng.next_u64())
      << where << ": the kernel took a different number of draws";
}

TEST(NoiseKernelTest, RandomPsrcsSourceMatchesPairwiseLoop) {
  for (const ProcId n : kSizes) {
    for (const double p : kProbabilities) {
      RandomPsrcsParams params;
      params.n = n;
      params.k = std::min<int>(3, static_cast<int>(n));
      params.root_components = params.k;
      params.noise_probability = p;
      params.stabilization_round = kStabilization;
      params.noise_after_stabilization = n % 2 == 1;
      const std::uint64_t seed = 2711 + static_cast<std::uint64_t>(n);
      RandomPsrcsSource source(seed, params);
      std::vector<std::uint64_t> rows;
      for (Round r = 1; r <= kStabilization + 3; ++r) {
        Digraph expected;
        oracles::random_psrcs_graph_into(seed, params,
                                         source.stable_skeleton(), r,
                                         expected);
        EXPECT_EQ(source.graph(r), expected) << label(n, p, r);
        expect_same_as_pairwise(source.stable_skeleton(), p,
                                mix_seed(seed, static_cast<std::uint64_t>(r)),
                                rows, label(n, p, r));
      }
    }
  }
}

TEST(NoiseKernelTest, PartitionSourceMatchesPairwiseLoop) {
  for (const ProcId n : kSizes) {
    for (const double p : kProbabilities) {
      PartitionParams params;
      params.blocks = even_blocks(n, std::min<int>(2, static_cast<int>(n)));
      params.cross_noise_probability = p;
      params.stabilization_round = kStabilization;
      const std::uint64_t seed = 2712 + static_cast<std::uint64_t>(n);
      PartitionSource source(seed, params);
      std::vector<std::uint64_t> rows;
      for (Round r = 1; r <= kStabilization + 3; ++r) {
        Digraph expected;
        oracles::partition_graph_into(seed, params, source.stable_skeleton(),
                                      r, expected);
        EXPECT_EQ(source.graph(r), expected) << label(n, p, r);
        expect_same_as_pairwise(source.stable_skeleton(), p,
                                mix_seed(seed, static_cast<std::uint64_t>(r)),
                                rows, label(n, p, r));
      }
    }
  }
}

TEST(NoiseKernelTest, ArbitraryGraphsMatchPairwiseLoop) {
  // Graphs with missing self-loops and dense or empty rows, so the
  // candidate words take every shape, including whole-word gaps.
  Rng shapes(2713);
  std::vector<std::uint64_t> rows;
  for (const ProcId n : kSizes) {
    for (const double density : {0.0, 0.1, 0.9, 1.0}) {
      for (const bool self_loops : {false, true}) {
        const Digraph g = random_graph(n, density, self_loops, shapes);
        for (const double p : kProbabilities) {
          expect_same_as_pairwise(g, p, shapes.next_u64(), rows,
                                  label(n, p, 0) +
                                      " density=" + std::to_string(density));
        }
      }
    }
  }
}

TEST(NoiseKernelTest, ThresholdIsTheExactAcceptanceBoundary) {
  // next_bool(p) accepts a draw x iff m * 2^-53 < p for m = x >> 11.
  // The threshold T must put the boundary exactly between m = T - 1
  // (accepted) and m = T (rejected); random draws would expose a
  // floor-for-ceil slip only with probability 2^-53 each.
  const auto next_double_below = [](std::uint64_t m, double p) {
    return static_cast<double>(m) * 0x1.0p-53 < p;
  };
  std::vector<double> probabilities = {
      std::numeric_limits<double>::denorm_min(),
      0x1.0p-60,
      0x1.0p-53,
      0x1.8p-53,
      0.1,
      0.25,
      0.3,
      1.0 / 3.0,
      0.35,
      0.5,
      0.7,
      1.0 - 0x1.0p-52,
      1.0 - 0x1.0p-53};
  Rng rng(2714);
  for (int i = 0; i < 1000; ++i) {
    // Both kinds: p * 2^53 an integer, and (almost surely) not one.
    const std::uint64_t m = rng.next_u64() >> 11;
    if (m != 0) probabilities.push_back(static_cast<double>(m) * 0x1.0p-53);
    const double p = rng.next_double() * 0x1.0p-3;
    if (p > 0.0) probabilities.push_back(p);
  }
  for (const double p : probabilities) {
    const std::uint64_t t = bernoulli_threshold(p);
    ASSERT_GE(t, 1U) << p;
    ASSERT_LE(t, std::uint64_t{1} << 53) << p;
    EXPECT_TRUE(next_double_below(t - 1, p)) << "p=" << p << " T=" << t;
    EXPECT_FALSE(next_double_below(t, p)) << "p=" << p << " T=" << t;
  }
  EXPECT_EQ(bernoulli_threshold(0.0), 0U);
  EXPECT_EQ(bernoulli_threshold(-0.5), 0U);
  EXPECT_EQ(bernoulli_threshold(std::numeric_limits<double>::quiet_NaN()),
            0U);
  EXPECT_EQ(bernoulli_threshold(1.0), std::uint64_t{1} << 53);
  EXPECT_EQ(bernoulli_threshold(3.0), std::uint64_t{1} << 53);
}

TEST(NoiseKernelTest, ThresholdAgreesWithNextBool) {
  // Also where next_bool takes no draw: T = 2^53 accepts every m and
  // T = 0 none, which is its answer for p >= 1 and for p <= 0 or NaN.
  Rng rng(2715);
  for (const double p : kProbabilities) {
    const std::uint64_t t = bernoulli_threshold(p);
    for (int i = 0; i < 2000; ++i) {
      Rng copy = rng;
      const std::uint64_t x = rng.next_u64();
      EXPECT_EQ(copy.next_bool(p), (x >> 11) < t) << "p=" << p;
    }
  }
}

}  // namespace
}  // namespace sskel
