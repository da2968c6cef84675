// Cache-invalidation property tests for the change-driven analytics
// (DESIGN.md §8-9): across randomized interleavings of shrinking and
// no-op rounds, every version-cached result stays *equivalent* to a
// fresh recomputation, and the number of recomputations equals the
// number of version bumps (+1 for the initial fill) — never once per
// round.
//
// "Equivalent", not "bit-identical": the tracker's SCC analytics are
// maintained incrementally (graph/inc_scc.hpp), and the incremental
// maintainer guarantees the same partition, the same root sets, and a
// valid reverse-topological component order — but not Tarjan's exact
// emission permutation.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/scc.hpp"
#include "predicates/analysis.hpp"
#include "predicates/psrcs.hpp"
#include "skeleton/tracker.hpp"
#include "util/rng.hpp"
#include "util/versioned_cache.hpp"

namespace sskel {
namespace {

struct Edge {
  ProcId from;
  ProcId to;
};

/// Non-self-loop edges present in g.
std::vector<Edge> removable_edges(const Digraph& g) {
  std::vector<Edge> edges;
  for (ProcId q : g.nodes()) {
    for (ProcId p : g.out_neighbors(q)) {
      if (q != p) edges.push_back({q, p});
    }
  }
  return edges;
}

std::vector<ProcSet> sorted_sets(std::vector<ProcSet> sets) {
  std::sort(sets.begin(), sets.end(),
            [](const ProcSet& a, const ProcSet& b) {
              return a.first() < b.first();
            });
  return sets;
}

/// Tracker analytics vs a fresh Tarjan run: same partition, same root
/// sets, consistent component_of, valid reverse-topological order.
void expect_scc_equivalent(const SkeletonTracker& tracker) {
  const Digraph& skel = tracker.skeleton();
  const SccDecomposition& got = tracker.current_scc();
  const SccDecomposition fresh = strongly_connected_components(skel);
  ASSERT_EQ(got.count(), fresh.count());
  ASSERT_EQ(sorted_sets(got.components), sorted_sets(fresh.components));
  for (ProcId p : skel.nodes()) {
    const int c = got.component_of[static_cast<std::size_t>(p)];
    ASSERT_GE(c, 0);
    ASSERT_TRUE(got.components[static_cast<std::size_t>(c)].contains(p));
  }
  for (ProcId u : skel.nodes()) {
    for (ProcId v : skel.out_neighbors(u)) {
      const int cu = got.component_of[static_cast<std::size_t>(u)];
      const int cv = got.component_of[static_cast<std::size_t>(v)];
      if (cu != cv) {
        ASSERT_LT(cv, cu);
      }
    }
  }
  ASSERT_EQ(sorted_sets(tracker.current_root_components()),
            sorted_sets(root_components(skel)));
}

TEST(AnalyticsCacheProperty, CachedEqualsFreshAcrossRandomRuns) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(mix_seed(0xCAC4E, seed));
    const ProcId n = static_cast<ProcId>(6 + rng.next_below(10));  // 6..15
    SkeletonTracker tracker(n);
    SkeletonPredicateCache predicates;
    const int k = 2;

    std::uint64_t bumps = 0;
    std::int64_t psrcs_queries = 0;
    // Prime both caches at version 0 so "recomputes == bumps + 1"
    // holds even when the very first round already shrinks.
    (void)tracker.current_root_components();
    (void)predicates.psrcs_exact(tracker.skeleton(), tracker.version(), k);
    const Round rounds = 40;
    for (Round r = 1; r <= rounds; ++r) {
      // Shrinking round with probability ~1/3 (while edges remain),
      // no-op round otherwise. A no-op observes the complete graph, a
      // shrinking round removes exactly one surviving non-loop edge.
      Digraph g = Digraph::complete(n);
      const std::vector<Edge> candidates = removable_edges(tracker.skeleton());
      const bool shrink = !candidates.empty() && rng.next_below(3) == 0;
      if (shrink) {
        const Edge e = candidates[static_cast<std::size_t>(
            rng.next_below(candidates.size()))];
        g.remove_edge(e.from, e.to);
      }

      const std::uint64_t version_before = tracker.version();
      tracker.observe(r, g);
      if (shrink) {
        ASSERT_EQ(tracker.version(), version_before + 1);
        bumps += 1;
      } else {
        ASSERT_EQ(tracker.version(), version_before);
      }

      // Equivalent to fresh recomputation, every round.
      expect_scc_equivalent(tracker);

      const PsrcsCheck& cached =
          predicates.psrcs_exact(tracker.skeleton(), tracker.version(), k);
      const PsrcsCheck fresh_psrcs = check_psrcs_exact(tracker.skeleton(), k);
      ++psrcs_queries;
      ASSERT_EQ(cached.holds, fresh_psrcs.holds);
      ASSERT_EQ(cached.violating_subset, fresh_psrcs.violating_subset);
      ASSERT_EQ(cached.subsets_checked, fresh_psrcs.subsets_checked);
      // Exact verdicts are always certified at full confidence.
      ASSERT_TRUE(cached.certified);
      ASSERT_EQ(cached.confidence, 1.0);

      ASSERT_EQ(tracker.stabilized_for(),
                tracker.rounds_observed() - tracker.last_change_round());
    }

    // The recompute counters are the heart of the property: work
    // happened exactly once per version (plus the initial fill), not
    // once per round.
    ASSERT_GT(psrcs_queries, static_cast<std::int64_t>(bumps) + 1);
    EXPECT_EQ(tracker.analytics_recomputes(),
              static_cast<std::int64_t>(bumps) + 1);
    EXPECT_EQ(predicates.psrcs_recomputes(),
              static_cast<std::int64_t>(bumps) + 1);
    EXPECT_EQ(tracker.version(), bumps);
  }
}

TEST(AnalyticsCacheProperty, NoOpTailDoesNotRecompute) {
  const ProcId n = 8;
  SkeletonTracker tracker(n);
  Digraph g = Digraph::complete(n);
  g.remove_edge(0, 3);
  tracker.observe(1, g);
  (void)tracker.current_root_components();
  const std::int64_t after_first = tracker.analytics_recomputes();

  // A long post-stabilization tail: same graph every round.
  for (Round r = 2; r <= 100; ++r) {
    tracker.observe(r, g);
    (void)tracker.current_scc();
    (void)tracker.current_root_components();
  }
  EXPECT_EQ(tracker.analytics_recomputes(), after_first);
  EXPECT_EQ(tracker.stabilized_for(), 99);
}

TEST(AnalyticsCacheProperty, SparseQueriesBatchDeltasCorrectly) {
  // Analytics queried only every few version bumps: the tracker must
  // batch the intervening deltas into one incremental apply and still
  // agree with a fresh Tarjan run.
  Rng rng(0xBA7C4);
  const ProcId n = 12;
  SkeletonTracker tracker(n);
  (void)tracker.current_scc();  // seed the maintainer
  Round r = 0;
  while (true) {
    const std::vector<Edge> candidates = removable_edges(tracker.skeleton());
    if (candidates.empty()) break;
    // 1-4 shrinking rounds without any analytics query in between.
    const auto burst = 1 + rng.next_below(4);
    for (std::uint64_t i = 0; i < burst; ++i) {
      const std::vector<Edge> now = removable_edges(tracker.skeleton());
      if (now.empty()) break;
      const Edge e =
          now[static_cast<std::size_t>(rng.next_below(now.size()))];
      Digraph g = Digraph::complete(n);
      g.remove_edge(e.from, e.to);
      tracker.observe(++r, g);
    }
    expect_scc_equivalent(tracker);
  }
}

// --- VersionedCache unit tests --------------------------------------------

TEST(VersionedCacheTest, RefreshUpdatesInPlace) {
  VersionedCache<std::vector<int>> cache;
  const auto append = [](std::vector<int>& v) { v.push_back(1); };
  EXPECT_EQ(cache.refresh(1, append).size(), 1u);  // first fill
  EXPECT_EQ(cache.refresh(1, append).size(), 1u);  // hit: no update
  EXPECT_EQ(cache.refresh(2, append).size(), 2u);  // stale: in-place
  EXPECT_EQ(cache.recomputes(), 2);
}

}  // namespace
}  // namespace sskel
