// Unit tests for the Psrcs(k) predicate machinery (Sec. III, Eq. (8)).
#include "predicates/psrcs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "adversary/figure1.hpp"
#include "adversary/impossibility.hpp"
#include "adversary/random_psrcs.hpp"
#include "oracles/hub_cover.hpp"
#include "oracles/psrcs_bruteforce.hpp"
#include "util/rng.hpp"

namespace sskel {
namespace {

TEST(FindTwoSourceTest, FindsCommonSource) {
  Digraph g(5);
  g.add_self_loops();
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  const auto w = find_two_source(g, ProcSet::of(5, {1, 2}));
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->source, 0);
  EXPECT_EQ(w->receiver_a, 1);
  EXPECT_EQ(w->receiver_b, 2);
}

TEST(FindTwoSourceTest, SelfLoopCountsAsSource) {
  // p = q is allowed: q hears itself and q' hears q.
  Digraph g(4);
  g.add_self_loops();
  g.add_edge(1, 3);
  const auto w = find_two_source(g, ProcSet::of(4, {1, 3}));
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->source, 1);
}

TEST(FindTwoSourceTest, NoSourceForIsolatedPair) {
  Digraph g(4);
  g.add_self_loops();  // only self-loops: nobody reaches two receivers
  EXPECT_FALSE(find_two_source(g, ProcSet::of(4, {0, 1})).has_value());
}

TEST(CheckPsrcsExactTest, StarSatisfiesPsrcs1) {
  // A star 0 -> everyone satisfies Psrcs(1): any 2 processes hear 0.
  Digraph g(6);
  g.add_self_loops();
  for (ProcId p = 0; p < 6; ++p) g.add_edge(0, p);
  const PsrcsCheck check = check_psrcs_exact(g, 1);
  EXPECT_TRUE(check.holds);
  // The brute-force oracle enumerates every pair; the exact checker
  // only materializes sourceless partial subsets.
  const PsrcsCheck brute = oracles::check_psrcs_bruteforce(g, 1);
  EXPECT_TRUE(brute.holds);
  EXPECT_EQ(brute.subsets_checked, 15);  // C(6,2)
  EXPECT_LT(check.subsets_checked, brute.subsets_checked);
}

TEST(CheckPsrcsExactTest, SelfLoopsOnlyViolatesEveryK) {
  const Digraph g = Digraph::self_loops_only(5);
  for (int k = 1; k <= 3; ++k) {
    const PsrcsCheck check = check_psrcs_exact(g, k);
    EXPECT_FALSE(check.holds) << "k=" << k;
    ASSERT_TRUE(check.violating_subset.has_value());
    EXPECT_EQ(check.violating_subset->count(), k + 1);
    EXPECT_FALSE(
        find_two_source(g, *check.violating_subset).has_value());
  }
}

TEST(CheckPsrcsExactTest, Figure1SatisfiesPsrcs3ButNotPsrcs1) {
  // The paper's Figure 1 run: Psrcs(3) holds (its two root components
  // sit under a hub cover of size <= 3). Psrcs(1) must fail — the two
  // root components are independent, so e.g. {p1, p3} has no common
  // source. (Psrcs(2) also happens to hold for this topology, which is
  // consistent: it only has 2 root components.)
  const Digraph skel = figure1_stable_skeleton();
  EXPECT_TRUE(check_psrcs_exact(skel, kFigure1K).holds);
  EXPECT_TRUE(check_psrcs_exact(skel, 2).holds);
  const PsrcsCheck k1 = check_psrcs_exact(skel, 1);
  EXPECT_FALSE(k1.holds);
  ASSERT_TRUE(k1.violating_subset.has_value());
  EXPECT_EQ(k1.violating_subset->count(), 2);
}

TEST(CheckPsrcsExactTest, ImpossibilityRunSatisfiesPsrcsK) {
  // Theorem 2's run is *constructed* to satisfy Psrcs(k).
  for (ProcId n : {5, 8}) {
    for (int k = 2; k < 5; ++k) {
      const Digraph g = impossibility_graph(n, k);
      EXPECT_TRUE(check_psrcs_exact(g, k).holds) << "n=" << n << " k=" << k;
      // ... and (as the proof needs) it cannot satisfy Psrcs(k-1):
      // the k-1 loners plus one follower form a violating k-subset.
      EXPECT_FALSE(check_psrcs_exact(g, k - 1).holds)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(CheckPsrcsExactTest, MonotoneInK) {
  // Psrcs(k) implies Psrcs(k+1): a 2-source for every (k+1)-subset of
  // a (k+2)-subset serves (pick any (k+1)-subset inside).
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    Digraph g(7);
    g.add_self_loops();
    for (ProcId q = 0; q < 7; ++q) {
      for (ProcId p = 0; p < 7; ++p) {
        if (rng.next_bool(0.25)) g.add_edge(q, p);
      }
    }
    bool prev = check_psrcs_exact(g, 1).holds;
    for (int k = 2; k <= 5; ++k) {
      const bool cur = check_psrcs_exact(g, k).holds;
      if (prev) {
        EXPECT_TRUE(cur) << "monotonicity broken at k=" << k;
      }
      prev = cur;
    }
  }
}

TEST(CheckPsrcsSampledTest, FindsViolationsEventually) {
  const Digraph g = Digraph::self_loops_only(8);
  Rng rng(5);
  const PsrcsCheck check = check_psrcs_sampled(g, 2, 200, rng);
  EXPECT_FALSE(check.holds);
  // A sampled violation carries its witness, so it is a certificate.
  EXPECT_TRUE(check.certified);
  EXPECT_EQ(check.confidence, 1.0);
  ASSERT_TRUE(check.violating_subset.has_value());
}

TEST(CheckPsrcsSampledTest, NeverRefutesTrue) {
  Digraph g(12);
  g.add_self_loops();
  for (ProcId p = 0; p < 12; ++p) g.add_edge(3, p);
  Rng rng(6);
  const PsrcsCheck check = check_psrcs_sampled(g, 1, 500, rng);
  EXPECT_TRUE(check.holds);
  EXPECT_EQ(check.subsets_checked, 500);
  // ... but a sampled pass is NOT a proof, and says so.
  EXPECT_FALSE(check.certified);
  EXPECT_GT(check.confidence, 0.0);
  EXPECT_LT(check.confidence, 1.0);
}

TEST(CheckPsrcsSampledTest, PassConfidenceMatchesMissBound) {
  // n = 10, k = 2: C(10, 3) = 120 subsets, so s no-hit samples refute
  // a (hypothetical) single violator with confidence
  // 1 - (1 - 1/120)^s.
  Digraph g(10);
  g.add_self_loops();
  for (ProcId p = 0; p < 10; ++p) g.add_edge(0, p);
  EXPECT_EQ(binomial_double(10, 3), 120.0);
  for (const int samples : {1, 10, 400}) {
    Rng rng(static_cast<std::uint64_t>(samples));
    const PsrcsCheck check = check_psrcs_sampled(g, 2, samples, rng);
    ASSERT_TRUE(check.holds);
    EXPECT_FALSE(check.certified);
    const double expected =
        -std::expm1(static_cast<double>(samples) * std::log1p(-1.0 / 120.0));
    EXPECT_DOUBLE_EQ(check.confidence, expected);
  }
  // More samples => strictly more confidence.
  Rng rng_a(1);
  Rng rng_b(1);
  EXPECT_LT(check_psrcs_sampled(g, 2, 10, rng_a).confidence,
            check_psrcs_sampled(g, 2, 1000, rng_b).confidence);
  // Zero samples refute nothing.
  Rng rng_c(1);
  EXPECT_EQ(check_psrcs_sampled(g, 2, 0, rng_c).confidence, 0.0);
}

TEST(CheckPsrcsSampledTest, VacuousWhenSubsetTooLarge) {
  const Digraph g = Digraph::self_loops_only(3);
  Rng rng(7);
  const PsrcsCheck check = check_psrcs_sampled(g, 5, 100, rng);
  EXPECT_TRUE(check.holds);
  // No (k+1)-subsets exist: the pass is a (vacuous) proof.
  EXPECT_TRUE(check.certified);
  EXPECT_EQ(check.confidence, 1.0);
}

TEST(CheckPsrcsExactTest, VerdictsAreAlwaysCertified) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    Digraph g(8);
    g.add_self_loops();
    for (ProcId q = 0; q < 8; ++q) {
      for (ProcId p = 0; p < 8; ++p) {
        if (rng.next_bool(0.2)) g.add_edge(q, p);
      }
    }
    for (const int k : {1, 2, 3}) {
      const PsrcsCheck exact = check_psrcs_exact(g, k);
      const PsrcsCheck brute = oracles::check_psrcs_bruteforce(g, k);
      EXPECT_TRUE(exact.certified);
      EXPECT_EQ(exact.confidence, 1.0);
      EXPECT_TRUE(brute.certified);
      EXPECT_EQ(brute.confidence, 1.0);
    }
  }
}

TEST(HubCoverTest, GreedyFindsCover) {
  Digraph g(6);
  g.add_self_loops();
  for (ProcId p = 0; p < 3; ++p) g.add_edge(0, p);
  for (ProcId p = 3; p < 6; ++p) g.add_edge(3, p);
  const auto cover = greedy_hub_cover(g);
  ASSERT_TRUE(cover.has_value());
  EXPECT_TRUE(is_hub_cover(g, *cover));
  EXPECT_LE(cover->count(), 2);
}

TEST(HubCoverTest, CoverImpliesPsrcs) {
  // The pigeonhole argument: hub cover of size j => Psrcs(j).
  Rng rng(321);
  for (int trial = 0; trial < 20; ++trial) {
    Digraph g(8);
    g.add_self_loops();
    for (ProcId q = 0; q < 8; ++q) {
      for (ProcId p = 0; p < 8; ++p) {
        if (rng.next_bool(0.3)) g.add_edge(q, p);
      }
    }
    const auto cover = greedy_hub_cover(g);
    ASSERT_TRUE(cover.has_value());
    const int j = cover->count();
    if (j < 8) {
      EXPECT_TRUE(check_psrcs_exact(g, j).holds)
          << "hub cover of size " << j << " must imply Psrcs(" << j << ")";
    }
  }
}

TEST(HubCoverTest, SelfLoopsGiveTrivialCover) {
  const Digraph g = Digraph::self_loops_only(4);
  const auto cover = greedy_hub_cover(g);
  ASSERT_TRUE(cover.has_value());
  EXPECT_EQ(cover->count(), 4);  // everyone must cover themselves
}

TEST(HubCoverTest, IsHubCoverRejectsNonCover) {
  Digraph g(4);
  g.add_self_loops();
  EXPECT_FALSE(is_hub_cover(g, ProcSet::of(4, {0})));
  EXPECT_TRUE(is_hub_cover(g, ProcSet::full(4)));
}

/// Skeletons the hub-cover certificate runs on, at universe n:
/// disjoint complete blocks of sqrt(n) with a few cross-block edges
/// (perfbench's `certify` shape), random out-neighbourhoods with
/// self-loops, and a random Psrcs(k) adversary's stable skeleton (a
/// hub cover by construction).
std::vector<Digraph> certificate_skeletons(ProcId n, Rng& rng) {
  const auto pick = [&rng, n] {
    return static_cast<ProcId>(rng.next_below(static_cast<std::uint64_t>(n)));
  };
  std::vector<Digraph> out;
  ProcId block = 1;
  while (block * block < n) ++block;
  Digraph blocks(n);
  for (ProcId q = 0; q < n; ++q) {
    const ProcId start = q / block * block;
    for (ProcId p = start; p < n && p < start + block; ++p) {
      blocks.add_edge(q, p);
    }
  }
  for (ProcId i = 0; i < block; ++i) blocks.add_edge(pick(), pick());
  out.push_back(std::move(blocks));

  Digraph random(n);
  random.add_self_loops();
  for (ProcId q = 0; q < n; ++q) {
    for (ProcId i = 0; i < block; ++i) random.add_edge(q, pick());
  }
  out.push_back(std::move(random));

  RandomPsrcsParams params;
  params.n = n;
  params.k = static_cast<int>(block);
  params.root_components = params.k;
  params.max_core_size = 4;
  params.follower_edge_probability = 4.0 / static_cast<double>(n);
  out.push_back(RandomPsrcsSource(rng.next_u64(), params).stable_skeleton());
  return out;
}

TEST(HubCoverTest, MatchesMaterializingOracle) {
  for (const ProcId n : {64, 4096}) {
    Rng rng(mix_seed(0xC07E2, static_cast<std::uint64_t>(n)));
    for (const Digraph& g : certificate_skeletons(n, rng)) {
      const std::optional<ProcSet> cover = greedy_hub_cover(g);
      const std::optional<ProcSet> expected = oracles::greedy_hub_cover(g);
      ASSERT_TRUE(expected.has_value());
      ASSERT_TRUE(cover.has_value());
      EXPECT_EQ(*cover, *expected) << "n=" << n << " got "
                                   << cover->to_string() << " want "
                                   << expected->to_string();
    }
  }
}

TEST(FindTwoSourceTest, MatchesMaterializingOracle) {
  for (const ProcId n : {64, 4096}) {
    Rng rng(mix_seed(0x2502CE, static_cast<std::uint64_t>(n)));
    for (const Digraph& g : certificate_skeletons(n, rng)) {
      // Subsets from one member up to half the universe, plus the full
      // set and a greedy hub cover (witnesses and misses both occur).
      std::vector<ProcSet> subsets;
      for (const ProcId size : {ProcId{1}, ProcId{2}, ProcId{3}, ProcId{9},
                                std::min<ProcId>(65, n / 2), n / 2}) {
        ProcSet s(n);
        while (s.count() < size) s.insert(static_cast<ProcId>(
            rng.next_below(static_cast<std::uint64_t>(n))));
        subsets.push_back(std::move(s));
      }
      subsets.push_back(ProcSet::full(n));
      subsets.push_back(*greedy_hub_cover(g));
      int found = 0;
      for (const ProcSet& s : subsets) {
        const std::optional<TwoSourceWitness> got = find_two_source(g, s);
        const std::optional<TwoSourceWitness> want =
            oracles::find_two_source(g, s);
        ASSERT_EQ(got.has_value(), want.has_value())
            << "n=" << n << " s=" << s.to_string();
        if (!got.has_value()) continue;
        ++found;
        EXPECT_EQ(got->source, want->source);
        EXPECT_EQ(got->receiver_a, want->receiver_a);
        EXPECT_EQ(got->receiver_b, want->receiver_b);
      }
      EXPECT_GT(found, 0);
      EXPECT_LT(found, static_cast<int>(subsets.size()));
    }
  }
}

}  // namespace
}  // namespace sskel
