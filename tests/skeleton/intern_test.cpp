// Tests for the run-wide structure intern table (DESIGN.md §10).
//
// The table is a pure cache: every analytics answer served from an
// InternedStructure must be bit-equal to a fresh computation on the
// same structure, interning must never conflate distinct structures
// (even under forced fingerprint collisions), and wiring the table
// into a full Algorithm 1 run must leave every decision, path, and
// skeleton bit-identical to the uninterned run — only the work
// counters may move.
#include "skeleton/intern.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <string>
#include <thread>
#include <vector>

#include "adversary/random_psrcs.hpp"
#include "graph/digraph.hpp"
#include "graph/reach.hpp"
#include "graph/scc.hpp"
#include "kset/runner.hpp"
#include "rounds/graph_source.hpp"
#include "skeleton/tracker.hpp"
#include "util/rng.hpp"

namespace sskel {
namespace {

Digraph random_graph(ProcId n, Rng& rng, int edge_percent) {
  Digraph g(n);
  g.add_self_loops();
  for (ProcId u = 0; u < n; ++u) {
    for (ProcId v = 0; v < n; ++v) {
      if (u == v) continue;
      if (rng.next_below(100) < static_cast<std::uint64_t>(edge_percent)) {
        g.add_edge(u, v);
      }
    }
  }
  // Occasionally drop nodes so the node-set dimension is exercised.
  while (rng.next_below(4) == 0 && g.nodes().count() > 1) {
    g.remove_node(g.nodes().first());
  }
  return g;
}

/// Every analytics answer of `entry` re-derived from scratch on g.
void expect_entry_matches_fresh(InternedStructure& entry, const Digraph& g,
                                const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(entry.n(), g.n());
  EXPECT_EQ(entry.nodes(), g.nodes());
  EXPECT_EQ(entry.graph(), g);

  const SccDecomposition fresh = strongly_connected_components(g);
  EXPECT_EQ(entry.scc().components, fresh.components);
  EXPECT_EQ(entry.scc().component_of, fresh.component_of);
  EXPECT_EQ(entry.root_indices(), root_component_indices(g, fresh));
  EXPECT_EQ(entry.strongly_connected(), is_strongly_connected(g));

  for (ProcId owner : g.nodes()) {
    const ProcSet keep = reaching(g, owner);
    EXPECT_EQ(entry.keep_set(owner), keep) << "owner=" << owner;
    EXPECT_EQ(entry.pruned_strongly_connected(owner),
              is_strongly_connected(g.induced(keep)))
        << "owner=" << owner;
  }
}

// --- analytics consistency -------------------------------------------------

TEST(InternTableTest, RandomizedConsistencyAgainstFreshComputation) {
  // 500 random structures across sizes: the shared analytics of each
  // interned entry must be bit-equal to fresh scc/reach runs.
  StructureInternTable table;
  Rng rng(0x1234);
  const ProcId sizes[] = {3, 6, 10, 14};
  for (int i = 0; i < 500; ++i) {
    const ProcId n = sizes[i % 4];
    const Digraph g = random_graph(
        n, rng, 10 + static_cast<int>(rng.next_below(60)));
    InternedStructure* entry = table.intern(g);
    ASSERT_NE(entry, nullptr) << "i=" << i;
    expect_entry_matches_fresh(*entry, g, "i=" + std::to_string(i));
    if (::testing::Test::HasFailure()) return;
  }
  const InternStats stats = table.stats();
  EXPECT_EQ(stats.hits + stats.misses, 500);
  EXPECT_EQ(stats.entries, static_cast<std::int64_t>(table.entry_count()));
}

TEST(InternTableTest, SameStructureResolvesToSameEntryAndComputesOnce) {
  StructureInternTable table;
  Digraph g(5);
  g.add_self_loops();
  for (ProcId p = 0; p < 5; ++p) g.add_edge(p, (p + 1) % 5);

  InternedStructure* first = table.intern(g);
  ASSERT_NE(first, nullptr);
  (void)first->scc();
  (void)first->keep_set(0);

  const Digraph copy = g;
  InternedStructure* second = table.intern(copy);
  EXPECT_EQ(first, second);
  (void)second->scc();
  (void)second->keep_set(2);  // same component as owner 0: cached

  EXPECT_EQ(first->scc_computes(), 1);
  EXPECT_EQ(first->keep_computes(), 1);
  const InternStats stats = table.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.entries, 1);
}

TEST(InternTableTest, DistinctStructuresGetDistinctEntries) {
  StructureInternTable table;
  Digraph a(4);
  a.add_edge(0, 1);
  Digraph b = a;
  b.add_edge(1, 0);
  Digraph c = a;
  c.remove_node(3);
  EXPECT_NE(table.intern(a), table.intern(b));
  EXPECT_NE(table.intern(a), table.intern(c));
  EXPECT_EQ(table.entry_count(), 3u);
}

// --- collision and overflow handling ---------------------------------------

TEST(InternTableTest, DegradedFingerprintForcesFullEqualityFallback) {
  // With every fingerprint forced constant, all entries chain in one
  // bucket with equal keys: only the word-level structure compare can
  // tell them apart, and every miss past the first must count at
  // least one fingerprint collision.
  InternTableOptions options;
  options.degrade_fingerprint_for_tests = true;
  StructureInternTable table(options);

  Rng rng(0xc011);
  std::vector<Digraph> graphs;
  std::vector<InternedStructure*> entries;
  for (int i = 0; i < 8; ++i) {
    Digraph g(6);
    g.add_self_loops();
    g.add_edge(0, static_cast<ProcId>(1 + i % 5));
    if (i >= 5) g.add_edge(1, static_cast<ProcId>(2 + i % 4));
    const bool fresh =
        std::find(graphs.begin(), graphs.end(), g) == graphs.end();
    InternedStructure* e = table.intern(g);
    ASSERT_NE(e, nullptr);
    if (fresh) {
      // A new structure must not alias any earlier entry.
      for (InternedStructure* prev : entries) EXPECT_NE(e, prev);
      graphs.push_back(g);
      entries.push_back(e);
    }
  }
  // Re-interning every structure finds its original entry through the
  // collision chain.
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    EXPECT_EQ(table.intern(graphs[i]), entries[i]) << "i=" << i;
    expect_entry_matches_fresh(*entries[i], graphs[i],
                               "degraded i=" + std::to_string(i));
  }
  const InternStats stats = table.stats();
  EXPECT_EQ(stats.entries, static_cast<std::int64_t>(graphs.size()));
  EXPECT_GT(stats.fingerprint_collisions, 0);
}

TEST(InternTableTest, OverflowReturnsNullAndKeepsExistingEntries) {
  InternTableOptions options;
  options.max_entries = 2;
  StructureInternTable table(options);

  Digraph a(4);
  a.add_edge(0, 1);
  Digraph b = a;
  b.add_edge(1, 2);
  Digraph c = a;
  c.add_edge(2, 3);

  InternedStructure* ea = table.intern(a);
  InternedStructure* eb = table.intern(b);
  ASSERT_NE(ea, nullptr);
  ASSERT_NE(eb, nullptr);
  EXPECT_EQ(table.intern(c), nullptr);  // full: caller falls back
  EXPECT_EQ(table.stats().overflow_rejects, 1);
  // Known structures still resolve.
  EXPECT_EQ(table.intern(a), ea);
  EXPECT_EQ(table.intern(b), eb);
  EXPECT_EQ(table.entry_count(), 2u);
}

// --- tracker integration ---------------------------------------------------

TEST(InternTrackerTest, TrackerAnalyticsMatchUninternedTracker) {
  // Two trackers fed the same round graphs, one resolving through an
  // intern table: identical skeletons, versions, and root components
  // at every step (intern path runs Tarjan on the canonical entry, so
  // even the component permutation matches a fresh run).
  RandomPsrcsParams params;
  params.n = 10;
  params.k = 2;
  params.root_components = 2;
  params.stabilization_round = 4;
  RandomPsrcsSource source(77, params);

  StructureInternTable table;
  SkeletonTracker interned(params.n);
  SkeletonTracker plain(params.n);
  interned.attach_intern(&table);

  for (Round r = 1; r <= 20; ++r) {
    const Digraph g = source.graph(r);
    interned.observe(r, g);
    plain.observe(r, g);
    ASSERT_EQ(interned.skeleton(), plain.skeleton()) << "r=" << r;
    ASSERT_EQ(interned.version(), plain.version()) << "r=" << r;
    const SccDecomposition fresh =
        strongly_connected_components(interned.skeleton());
    EXPECT_EQ(interned.current_scc().components, fresh.components)
        << "r=" << r;
    EXPECT_EQ(interned.current_root_indices(),
              root_component_indices(interned.skeleton(), fresh))
        << "r=" << r;
  }
  // The stabilized tracker holds an interned entry; the table saw one
  // structure per version bump at most.
  EXPECT_NE(interned.interned_current(), nullptr);
  EXPECT_GT(table.stats().hits + table.stats().misses, 0);
}

// --- full-run equivalence and sharing --------------------------------------

KSetRunReport run_with(GraphSource& source, int k, InternDomain* domain) {
  KSetRunConfig config;
  config.k = k;
  config.tail_rounds = 4;
  config.intern = domain;
  return run_kset(source, config);
}

void expect_reports_bit_equal(const KSetRunReport& a, const KSetRunReport& b,
                              const std::string& context) {
  SCOPED_TRACE(context);
  ASSERT_EQ(a.n, b.n);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t p = 0; p < a.outcomes.size(); ++p) {
    EXPECT_EQ(a.outcomes[p].decided, b.outcomes[p].decided) << "p=" << p;
    EXPECT_EQ(a.outcomes[p].decision, b.outcomes[p].decision) << "p=" << p;
    EXPECT_EQ(a.outcomes[p].decision_round, b.outcomes[p].decision_round)
        << "p=" << p;
  }
  EXPECT_EQ(a.paths, b.paths);
  EXPECT_EQ(a.verdict.k_agreement, b.verdict.k_agreement);
  EXPECT_EQ(a.verdict.validity, b.verdict.validity);
  EXPECT_EQ(a.verdict.termination, b.verdict.termination);
  EXPECT_EQ(a.verdict.distinct_decisions, b.verdict.distinct_decisions);
  EXPECT_EQ(a.rounds_executed, b.rounds_executed);
  EXPECT_EQ(a.final_skeleton, b.final_skeleton);
  EXPECT_EQ(a.skeleton_last_change, b.skeleton_last_change);
  EXPECT_EQ(a.root_components_final, b.root_components_final);
}

TEST(InternRunTest, InternedRunBitEqualToPrivateRun) {
  // Decisions, paths, verdicts, and skeletons must not move when the
  // intern table is wired in — it is a cache, not a semantics change.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    RandomPsrcsParams params;
    params.n = 9;
    params.k = 2;
    params.root_components = 2;
    params.stabilization_round = 3;
    RandomPsrcsSource private_source(seed, params);
    RandomPsrcsSource interned_source(seed, params);

    const KSetRunReport baseline =
        run_with(private_source, params.k, nullptr);
    InternDomain domain;
    const KSetRunReport interned =
        run_with(interned_source, params.k, &domain);
    expect_reports_bit_equal(baseline, interned,
                             "seed=" + std::to_string(seed));
    if (::testing::Test::HasFailure()) return;
    // The run actually exercised the table.
    const InternStats stats = domain.merged_stats();
    EXPECT_GT(stats.hits + stats.misses, 0) << "seed=" << seed;
  }
}

TEST(InternRunTest, OnlyTheTrackerLooksUpStructures) {
  // The processes answer Lines 25 and 28 from their own rows, so a
  // run with a domain attached makes exactly the tracker's lookups:
  // without a lemma monitor, the one analytics query behind the
  // report's final root components.
  const ProcId n = 8;
  ScheduleSource source({Digraph::complete(n)});
  InternDomain domain;
  KSetRunConfig config;
  config.k = 1;
  config.tail_rounds = 2;
  config.intern = &domain;

  const KSetRunReport report = run_kset(source, config);
  ASSERT_TRUE(report.all_decided);
  const InternStats stats = domain.merged_stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.overflow_rejects, 1);
  EXPECT_EQ(stats.entries, 1);
}

TEST(InternDomainTest, ShardsArePerThreadAndStatsMerge) {
  InternDomain domain;
  StructureInternTable& mine = domain.local();
  EXPECT_EQ(&mine, &domain.local());  // stable per thread
  Digraph g(4);
  g.add_edge(0, 1);
  ASSERT_NE(mine.intern(g), nullptr);
  EXPECT_EQ(domain.shard_count(), 1u);

  std::thread other([&domain, &g] {
    StructureInternTable& theirs = domain.local();
    (void)theirs.intern(g);
    (void)theirs.intern(g);
  });
  other.join();
  EXPECT_EQ(domain.shard_count(), 2u);
  const InternStats merged = domain.merged_stats();
  EXPECT_EQ(merged.misses, 2);  // one per shard: shards do not share
  EXPECT_EQ(merged.hits, 1);
  EXPECT_EQ(merged.entries, 2);
}

TEST(InternDomainTest, ConcurrentPromotionAcrossThreads) {
  // Two threads share one domain, so each gets its own shard wired to
  // the domain's tier. Phase 1: each interns its half of the graphs,
  // materializes their SCC analytics and interns them again, which
  // offers the snapshots to the tier. Phase 2: each interns the other
  // thread's half, misses in its own shard and adopts the snapshots.
  // Every served decomposition must equal a fresh Tarjan run.
  Rng rng(0x7B1E5EED);
  std::vector<Digraph> graphs;
  for (int i = 0; i < 16; ++i) graphs.push_back(random_graph(12, rng, 20));
  const std::size_t half = graphs.size() / 2;

  InternDomain domain;
  std::barrier phase(2);
  std::vector<int> mismatches(2, 0);
  const auto analyze = [&graphs](StructureInternTable& table, std::size_t i,
                                 int& bad) {
    InternedStructure* entry = table.intern(graphs[i]);
    if (entry == nullptr) {
      ++bad;
      return;
    }
    const SccDecomposition fresh = strongly_connected_components(graphs[i]);
    if (entry->scc().components != fresh.components ||
        entry->scc().component_of != fresh.component_of ||
        entry->root_indices() != root_component_indices(graphs[i], fresh)) {
      ++bad;
    }
  };
  const auto worker = [&](int id) {
    StructureInternTable& table = domain.local();
    const std::size_t own = static_cast<std::size_t>(id) * half;
    const std::size_t other = half - own;
    for (std::size_t i = own; i < own + half; ++i) {
      analyze(table, i, mismatches[static_cast<std::size_t>(id)]);
      (void)table.intern(graphs[i]);  // the hit offers the snapshot
    }
    phase.arrive_and_wait();
    for (std::size_t i = other; i < other + half; ++i) {
      analyze(table, i, mismatches[static_cast<std::size_t>(id)]);
    }
  };
  std::thread first(worker, 0);
  std::thread second(worker, 1);
  first.join();
  second.join();

  EXPECT_EQ(mismatches, std::vector<int>(2, 0));
  EXPECT_EQ(domain.shard_count(), 2u);
  const InternStats stats = domain.merged_stats();
  EXPECT_GT(stats.promotions, 0);
  EXPECT_GT(stats.promotion_hits, 0);
}

TEST(InternTierTest, PromotionSharesAnalyticsAcrossShards) {
  // Cross-shard promotion (DESIGN.md §10): a shard that materialized
  // expensive analytics offers a snapshot on its next hit; another
  // shard's first miss adopts the snapshot instead of recomputing.
  InternGlobalTier tier;
  StructureInternTable a;
  StructureInternTable b;
  a.set_global_tier(&tier);
  b.set_global_tier(&tier);

  Rng rng(0x9201107);
  const Digraph g = random_graph(8, rng, 35);

  InternedStructure* ea = a.intern(g);
  ASSERT_NE(ea, nullptr);
  // No analytics yet: the hit path must not promote a bare structure.
  ASSERT_EQ(a.intern(g), ea);
  EXPECT_EQ(tier.entry_count(), 0u);
  EXPECT_EQ(a.stats().promotions, 0);

  (void)ea->scc();  // materialize the shareable analytics
  EXPECT_EQ(ea->scc_computes(), 1);
  ASSERT_EQ(a.intern(g), ea);  // hit-path offer fires now
  EXPECT_EQ(tier.entry_count(), 1u);
  EXPECT_EQ(a.stats().promotions, 1);
  // At most one offer per entry.
  ASSERT_EQ(a.intern(g), ea);
  EXPECT_EQ(a.stats().promotions, 1);

  // Shard b misses, adopts the snapshot, and keeps its own entry.
  InternedStructure* eb = b.intern(g);
  ASSERT_NE(eb, nullptr);
  EXPECT_NE(eb, ea);
  const InternStats bs = b.stats();
  EXPECT_EQ(bs.misses, 1);
  EXPECT_EQ(bs.promotion_hits, 1);
  // The adopted analytics arrive precomputed and uncounted: querying
  // them must not re-run Tarjan (and must not double-report the
  // originating shard's work).
  EXPECT_EQ(eb->root_components(), ea->root_components());
  EXPECT_EQ(eb->scc_computes(), 0);

  // An adopted entry is never re-offered (first writer wins).
  ASSERT_EQ(b.intern(g), eb);
  EXPECT_EQ(b.stats().promotions, 0);
  EXPECT_EQ(tier.entry_count(), 1u);
}

TEST(InternTierTest, CollidingFingerprintNeverAdoptsWrongAnalytics) {
  // Degraded fingerprints make every structure collide in the tier;
  // the same-structure compare must reject the snapshot and fall back
  // to a fresh private computation.
  InternTableOptions options;
  options.degrade_fingerprint_for_tests = true;
  InternGlobalTier tier;
  StructureInternTable a(options);
  StructureInternTable b(options);
  a.set_global_tier(&tier);
  b.set_global_tier(&tier);

  Digraph g1(4);
  g1.add_self_loops();
  g1.add_edge(0, 1);
  Digraph g2(4);
  g2.add_self_loops();
  g2.add_edge(1, 0);

  InternedStructure* e1 = a.intern(g1);
  ASSERT_NE(e1, nullptr);
  (void)e1->scc();
  ASSERT_EQ(a.intern(g1), e1);  // promote g1's snapshot
  ASSERT_EQ(tier.entry_count(), 1u);

  // b interns the *different* structure behind the same fingerprint.
  InternedStructure* e2 = b.intern(g2);
  ASSERT_NE(e2, nullptr);
  EXPECT_EQ(b.stats().promotion_hits, 0);
  EXPECT_EQ(e2->nodes(), g2.nodes());
  EXPECT_EQ(e2->graph(), g2);
}

}  // namespace
}  // namespace sskel
