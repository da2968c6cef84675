// Tests for the skeleton-analysis utilities (min Psrcs k, Theorem 1
// profiles).
#include "predicates/analysis.hpp"

#include <gtest/gtest.h>

#include "adversary/figure1.hpp"
#include "adversary/impossibility.hpp"
#include "graph/scc.hpp"
#include "oracles/psrcs_bruteforce.hpp"
#include "util/rng.hpp"

namespace sskel {
namespace {

TEST(MinPsrcsKTest, AgreesWithExactChecker) {
  Rng rng(404);
  for (int trial = 0; trial < 25; ++trial) {
    const ProcId n = static_cast<ProcId>(3 + rng.next_below(7));
    Digraph g(n);
    g.add_self_loops();
    for (ProcId q = 0; q < n; ++q) {
      for (ProcId p = 0; p < n; ++p) {
        if (q != p && rng.next_bool(0.3)) g.add_edge(q, p);
      }
    }
    // The reference is the Eq. (8) enumeration, not the search that
    // min_psrcs_k itself runs.
    const auto k = min_psrcs_k(g);
    if (!k.has_value()) {
      EXPECT_FALSE(
          oracles::check_psrcs_bruteforce(g, static_cast<int>(n) - 1).holds);
      continue;
    }
    EXPECT_TRUE(oracles::check_psrcs_bruteforce(g, *k).holds) << "n=" << n;
    if (*k > 1) {
      EXPECT_FALSE(oracles::check_psrcs_bruteforce(g, *k - 1).holds)
          << "n=" << n;
    }
  }
}

TEST(MinPsrcsKTest, KnownSkeletons) {
  EXPECT_EQ(min_psrcs_k(figure1_stable_skeleton()), 2);
  Digraph star(5);
  star.add_self_loops();
  for (ProcId p = 0; p < 5; ++p) star.add_edge(2, p);
  EXPECT_EQ(min_psrcs_k(star), 1);
  // With only self-loops all n processes are sourceless: every k < n
  // fails.
  EXPECT_EQ(min_psrcs_k(Digraph::self_loops_only(4)), std::nullopt);
  EXPECT_EQ(min_psrcs_k(Digraph::self_loops_only(5)), std::nullopt);
  // Star 0 -> everyone (+self-loops): any two processes share source 0.
  Digraph star6(6);
  star6.add_self_loops();
  for (ProcId p = 0; p < 6; ++p) star6.add_edge(0, p);
  EXPECT_EQ(min_psrcs_k(star6), 1);
  // Theorem 2's run: the k-1 loners plus one follower of s are
  // sourceless, and any k+1 processes include two followers of s.
  for (int k = 2; k <= 5; ++k) {
    EXPECT_EQ(min_psrcs_k(impossibility_graph(8, k)), k) << "k=" << k;
  }
  // Eq. (8) ranges over Pi, absent nodes included: process 2 left the
  // skeleton, so it has no 2-source with anyone and Psrcs(1) fails on
  // {0, 2}; all three together share source 0.
  Digraph absent(3);
  absent.add_self_loops();
  absent.add_edge(0, 1);
  absent.add_edge(1, 0);
  absent.remove_node(2);
  EXPECT_EQ(min_psrcs_k(absent), 2);
}

TEST(ProfileTest, Theorem1ConsistencyOnRandomSkeletons) {
  // Theorem 1 in profile form: #root components <= min-k, always.
  Rng rng(505);
  for (int trial = 0; trial < 30; ++trial) {
    const ProcId n = static_cast<ProcId>(3 + rng.next_below(8));
    Digraph g(n);
    g.add_self_loops();
    for (ProcId q = 0; q < n; ++q) {
      for (ProcId p = 0; p < n; ++p) {
        if (q != p && rng.next_bool(rng.next_double() * 0.5)) {
          g.add_edge(q, p);
        }
      }
    }
    const PredicateProfile profile = profile_skeleton(g);
    EXPECT_TRUE(profile.theorem1_consistent)
        << "roots=" << profile.root_components << " min_k=" << profile.min_k;
    EXPECT_EQ(profile.root_components,
              static_cast<int>(root_components(g).size()));
  }
}

TEST(ProfileTest, ImpossibilityRunIsTight) {
  // The Theorem 2 construction realizes equality: k roots, min-k = k.
  for (int k = 2; k <= 4; ++k) {
    const PredicateProfile profile =
        profile_skeleton(impossibility_graph(7, k));
    EXPECT_EQ(profile.root_components, k);
    EXPECT_EQ(profile.min_k, k);
    EXPECT_TRUE(profile.theorem1_consistent);
  }
}

}  // namespace
}  // namespace sskel
