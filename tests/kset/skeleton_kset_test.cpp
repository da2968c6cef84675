// Unit tests for SkeletonKSetProcess: line-by-line behavior of
// Algorithm 1 on small scripted runs.
#include "kset/skeleton_kset.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "rounds/simulator.hpp"
#include "util/metrics.hpp"

namespace sskel {
namespace {

std::vector<std::unique_ptr<Algorithm<SkeletonMessage>>> make_procs(
    ProcId n, const std::vector<Value>& proposals,
    DecisionGuard guard = DecisionGuard::kAfterRoundN) {
  std::vector<std::unique_ptr<Algorithm<SkeletonMessage>>> procs;
  for (ProcId p = 0; p < n; ++p) {
    procs.push_back(std::make_unique<SkeletonKSetProcess>(
        n, p, proposals[static_cast<std::size_t>(p)], guard));
  }
  return procs;
}

SkeletonKSetProcess& view(Simulator<SkeletonMessage>& sim, ProcId p) {
  return static_cast<SkeletonKSetProcess&>(sim.process(p));
}

TEST(SkeletonKSetTest, InitialState) {
  SkeletonKSetProcess p(4, 1, 42);
  EXPECT_EQ(p.proposal(), 42);
  EXPECT_EQ(p.estimate(), 42);
  EXPECT_FALSE(p.decided());
  EXPECT_EQ(p.pt(), ProcSet::full(4));                       // Line 1
  EXPECT_EQ(p.approximation().nodes(), ProcSet::singleton(4, 1));  // Line 3
  EXPECT_EQ(p.decision_path(), DecisionPath::kNone);
}

TEST(SkeletonKSetTest, FirstMessageIsProp) {
  SkeletonKSetProcess p(3, 0, 5);
  const SkeletonMessage m = p.send(1);
  EXPECT_FALSE(m.decide);
  EXPECT_EQ(m.x, 5);
  EXPECT_EQ(m.graph().nodes(), ProcSet::singleton(3, 0));
}

TEST(SkeletonKSetTest, PtShrinksWithMissedMessages) {
  // p1 never hears p0.
  Digraph g = Digraph::complete(2);
  g.remove_edge(0, 1);
  ScheduleSource src({g});
  Simulator<SkeletonMessage> sim(src, make_procs(2, {10, 20}));
  sim.step();
  EXPECT_EQ(view(sim, 1).pt(), ProcSet::singleton(2, 1));
  EXPECT_EQ(view(sim, 0).pt(), ProcSet::full(2));
}

TEST(SkeletonKSetTest, EstimateIsMinOverTimelyNeighbors) {
  ScheduleSource src({Digraph::complete(3)});
  Simulator<SkeletonMessage> sim(src, make_procs(3, {30, 10, 20}));
  sim.step();
  // Everyone hears everyone: all estimates drop to 10 after round 1.
  for (ProcId p = 0; p < 3; ++p) EXPECT_EQ(view(sim, p).estimate(), 10);
}

TEST(SkeletonKSetTest, EstimateIgnoresUntimelySenders) {
  // p2 hears p0 in round 1 but not round 2; p0 leaves PT(p2), so p0's
  // small value must not be adopted in round 2 (Line 27 only ranges
  // over PT).
  Digraph g1 = Digraph::complete(3);
  Digraph g2 = Digraph::complete(3);
  g2.remove_edge(0, 2);
  // In round 1 p2 heard p0 (value 1) — adopted. That is fine: the
  // estimate was taken while p0 was still timely. Use a fresh value
  // ordering so the interesting case is round 2.
  ScheduleSource src({g1, g2});
  Simulator<SkeletonMessage> sim(src, make_procs(3, {100, 50, 60}));
  sim.step();
  EXPECT_EQ(view(sim, 2).estimate(), 50);  // min(100, 50, 60)
  sim.step();
  // p0 now untimely for p2, but p1 (50) still timely; estimate stays.
  EXPECT_EQ(view(sim, 2).pt(), ProcSet::of(3, {1, 2}));
  EXPECT_EQ(view(sim, 2).estimate(), 50);
}

TEST(SkeletonKSetTest, ApproximationAfterRoundOne) {
  ScheduleSource src({Digraph::complete(3)});
  Simulator<SkeletonMessage> sim(src, make_procs(3, {1, 2, 3}));
  sim.step();
  const LabeledDigraph& g = view(sim, 0).approximation();
  // Line 17: every timely neighbor contributes (q -1-> p0).
  for (ProcId q = 0; q < 3; ++q) EXPECT_EQ(g.label(q, 0), 1);
  // Nothing else is known yet (received graphs were initial).
  EXPECT_EQ(g.edge_count(), 3);
}

TEST(SkeletonKSetTest, ApproximationLearnsTransitively) {
  // Chain 0 -> 1 -> 2 (plus self-loops): after 2 rounds p2 knows
  // (0 -> 1) via p1's graph (Lemma 4 with path length 1).
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  ScheduleSource src({g});
  Simulator<SkeletonMessage> sim(src, make_procs(3, {1, 2, 3}));
  sim.run(2);
  const LabeledDigraph& g2 = view(sim, 2).approximation();
  EXPECT_EQ(g2.label(0, 1), 1);  // learned, one round stale
  EXPECT_EQ(g2.label(1, 2), 2);  // fresh
}

TEST(SkeletonKSetTest, DecidesWhenStronglyConnectedAfterGuard) {
  const ProcId n = 3;
  ScheduleSource src({Digraph::complete(n)});
  Simulator<SkeletonMessage> sim(src, make_procs(n, {7, 8, 9}));
  // Guard is r > n: no decision through round n.
  sim.run(n);
  for (ProcId p = 0; p < n; ++p) EXPECT_FALSE(view(sim, p).decided());
  sim.step();  // round n+1
  for (ProcId p = 0; p < n; ++p) {
    EXPECT_TRUE(view(sim, p).decided());
    EXPECT_EQ(view(sim, p).decision(), 7);
    EXPECT_EQ(view(sim, p).decision_path(), DecisionPath::kConnected);
    EXPECT_EQ(view(sim, p).decision_round(), n + 1);
  }
}

TEST(SkeletonKSetTest, AtRoundNGuardDecidesOneRoundEarlier) {
  const ProcId n = 3;
  ScheduleSource src({Digraph::complete(n)});
  Simulator<SkeletonMessage> sim(
      src, make_procs(n, {7, 8, 9}, DecisionGuard::kAtRoundN));
  sim.run(n);
  for (ProcId p = 0; p < n; ++p) {
    EXPECT_TRUE(view(sim, p).decided());
    EXPECT_EQ(view(sim, p).decision_round(), n);
  }
}

TEST(SkeletonKSetTest, LonerDecidesOwnValue) {
  // A process hearing nobody has the strongly connected singleton
  // approximation and must decide its own proposal (the Theorem 2
  // loner behavior).
  const ProcId n = 3;
  ScheduleSource src({Digraph::self_loops_only(n)});
  Simulator<SkeletonMessage> sim(src, make_procs(n, {5, 6, 7}));
  sim.run(n + 1);
  for (ProcId p = 0; p < n; ++p) {
    EXPECT_TRUE(view(sim, p).decided());
    EXPECT_EQ(view(sim, p).decision(), 5 + p);
  }
}

TEST(SkeletonKSetTest, DecideMessageForwarded) {
  // 0 <-> 1 strongly connected; 2 only hears 1. 2's approximation
  // never becomes strongly connected, so it can only decide via the
  // decide message (Line 10-13).
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  g.add_edge(1, 2);
  ScheduleSource src({g});
  Simulator<SkeletonMessage> sim(src, make_procs(3, {4, 9, 30}));
  sim.run(8);
  EXPECT_TRUE(view(sim, 2).decided());
  EXPECT_EQ(view(sim, 2).decision_path(), DecisionPath::kForwarded);
  EXPECT_EQ(view(sim, 2).decision(), 4);
  // The forwarder decided one round earlier than the follower learned.
  EXPECT_GT(view(sim, 2).decision_round(), view(sim, 1).decision_round());
}

TEST(SkeletonKSetTest, DecidedProcessKeepsBroadcastingDecide) {
  ScheduleSource src({Digraph::complete(2)});
  Simulator<SkeletonMessage> sim(src, make_procs(2, {1, 2}));
  sim.run(6);
  ASSERT_TRUE(view(sim, 0).decided());
  const SkeletonMessage m = view(sim, 0).send(7);
  EXPECT_TRUE(m.decide);
  EXPECT_EQ(m.x, 1);
  // The graph keeps being served fresh after the decision.
  EXPECT_GT(m.graph().max_label(), 0);
}

TEST(SkeletonKSetTest, DecisionIsIrrevocable) {
  ScheduleSource src({Digraph::complete(2)});
  Simulator<SkeletonMessage> sim(src, make_procs(2, {1, 2}));
  sim.run(10);
  EXPECT_TRUE(view(sim, 0).decided());
  EXPECT_EQ(view(sim, 0).decision(), 1);
  const Round decided_at = view(sim, 0).decision_round();
  sim.run(5);
  EXPECT_EQ(view(sim, 0).decision_round(), decided_at);
  EXPECT_EQ(view(sim, 0).decision(), 1);
}

TEST(SkeletonKSetTest, PurgeDropsStaleKnowledge) {
  // 0 -> 1 timely only during rounds 1-2 on a 3-process system; after
  // n = 3 more rounds, the stale edge must leave p1's graph.
  Digraph with_edge(3);
  with_edge.add_edge(0, 1);
  Digraph without(3);
  ScheduleSource src({with_edge, with_edge, without});
  Simulator<SkeletonMessage> sim(src, make_procs(3, {1, 2, 3}));
  sim.run(2);
  EXPECT_EQ(view(sim, 1).approximation().label(0, 1), 2);
  sim.run(3);  // rounds 3-5; cutoff at round 5 is 5-3 = 2
  EXPECT_FALSE(view(sim, 1).approximation().has_edge(0, 1));
  // 0 itself left PT(1), so it was also pruned as unreachable.
  EXPECT_FALSE(view(sim, 1).approximation().has_node(0));
}

TEST(SkeletonKSetTest, PostStabilizationRoundsReuseReachability) {
  // On a stable topology the post-purge structure of G_p repeats
  // round after round, so the Line-25/Line-28 reachability work must
  // come from the structure cache: zero fixpoints in the tail.
  ScheduleSource src({Digraph::complete(3)});
  Simulator<SkeletonMessage> sim(src, make_procs(3, {10, 20, 30}));
  for (int r = 0; r < 4; ++r) sim.step();
  for (ProcId p = 0; p < 3; ++p) ASSERT_TRUE(view(sim, p).decided());

  const std::int64_t fixpoints_before =
      metrics::total(metrics::Counter::kReachabilityComputations);
  const std::int64_t hits_before = view(sim, 0).reachability_cache_hits();
  for (int r = 0; r < 6; ++r) sim.step();
  EXPECT_EQ(metrics::total(metrics::Counter::kReachabilityComputations),
            fixpoints_before);
  EXPECT_EQ(view(sim, 0).reachability_cache_hits(), hits_before + 6);
}

TEST(SkeletonKSetTest, StructureChangeInvalidatesReachabilityCache) {
  // From round 3 on, p1 stops hearing p0, so the edge (0 -> 1) is
  // never relabeled past 2 and the round-5 purge (cutoff 5 - n = 2)
  // finally drops it from the approximations. That is the first
  // structural change after stabilization — the prune must leave the
  // cache and run a fresh fixpoint exactly there.
  Digraph full = Digraph::complete(3);
  Digraph broken = full;
  broken.remove_edge(0, 1);
  ScheduleSource src({full, full, broken});
  Simulator<SkeletonMessage> sim(src, make_procs(3, {10, 20, 30}));
  for (int r = 0; r < 4; ++r) sim.step();
  const std::int64_t before =
      metrics::total(metrics::Counter::kReachabilityComputations);
  sim.step();  // round 5: purge drops (0 -> 1), structure changes
  EXPECT_GT(metrics::total(metrics::Counter::kReachabilityComputations),
            before);
}

TEST(SkeletonKSetDeathTest, DecisionAccessorRequiresDecided) {
  SkeletonKSetProcess p(3, 0, 1);
  EXPECT_DEATH((void)p.decision(), "precondition");
}

}  // namespace
}  // namespace sskel
