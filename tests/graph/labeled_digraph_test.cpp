// Unit tests for LabeledDigraph and the approximation-graph operations
// of Algorithm 1 that the dense oracle runs over it (reset, labeled
// add, max-merge, purge, prune).
#include "graph/labeled_digraph.hpp"

#include <gtest/gtest.h>

#include "oracles/dense_kset.hpp"
#include "util/metrics.hpp"

namespace sskel {
namespace {

using oracles::merge_max;
using oracles::prune_not_reaching;
using oracles::purge_labels_up_to;

TEST(LabeledDigraphTest, InitialStateIsOwnerOnly) {
  const LabeledDigraph g(6, 2);
  EXPECT_EQ(g.nodes(), ProcSet::singleton(6, 2));
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_EQ(g.min_label(), 0);
  EXPECT_EQ(g.max_label(), 0);
}

TEST(LabeledDigraphTest, SetEdgeInsertsNodes) {
  LabeledDigraph g(6, 0);
  g.set_edge(3, 0, 5);
  EXPECT_TRUE(g.has_node(3));
  EXPECT_EQ(g.label(3, 0), 5);
  EXPECT_TRUE(g.has_edge(3, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_EQ(g.edge_count(), 1);
}

TEST(LabeledDigraphTest, SetEdgeOverwritesLabel) {
  LabeledDigraph g(4, 0);
  g.set_edge(1, 0, 2);
  g.set_edge(1, 0, 7);
  EXPECT_EQ(g.label(1, 0), 7);
  EXPECT_EQ(g.edge_count(), 1);  // single labeled edge per pair
}

TEST(LabeledDigraphTest, ResetClearsEverything) {
  LabeledDigraph g(4, 0);
  g.set_edge(1, 0, 2);
  g.set_edge(2, 1, 3);
  oracles::reset(g, 0);
  EXPECT_EQ(g.nodes(), ProcSet::singleton(4, 0));
  EXPECT_EQ(g.edge_count(), 0);
}

TEST(LabeledDigraphTest, MergeMaxTakesNewestLabel) {
  LabeledDigraph a(4, 0);
  a.set_edge(1, 0, 5);
  a.set_edge(2, 0, 2);
  LabeledDigraph b(4, 1);
  b.set_edge(1, 0, 3);   // older: a's 5 wins
  b.set_edge(2, 0, 6);   // newer: b's 6 wins
  b.set_edge(3, 1, 4);   // new edge
  merge_max(a, b);
  EXPECT_EQ(a.label(1, 0), 5);
  EXPECT_EQ(a.label(2, 0), 6);
  EXPECT_EQ(a.label(3, 1), 4);
  EXPECT_TRUE(a.has_node(3));
  EXPECT_TRUE(a.has_node(1));
}

TEST(LabeledDigraphTest, MergeMaxIsAssociativeInEffect) {
  // Folding merge_max pairwise equals the paper's batch max over
  // R_{i,j} (Lines 19-23).
  LabeledDigraph g1(3, 0), g2(3, 1), g3(3, 2);
  g1.set_edge(0, 1, 4);
  g2.set_edge(0, 1, 9);
  g3.set_edge(0, 1, 6);

  LabeledDigraph left(3, 0);
  merge_max(left, g1);
  merge_max(left, g2);
  merge_max(left, g3);

  LabeledDigraph right(3, 0);
  merge_max(right, g3);
  merge_max(right, g2);
  merge_max(right, g1);

  EXPECT_EQ(left.label(0, 1), 9);
  EXPECT_EQ(left, right);
}

TEST(LabeledDigraphTest, PurgeRemovesOldLabels) {
  LabeledDigraph g(4, 0);
  g.set_edge(1, 0, 2);
  g.set_edge(2, 0, 5);
  g.set_edge(3, 0, 8);
  purge_labels_up_to(g, 5);  // Line 24 with r - n = 5
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(2, 0));
  EXPECT_TRUE(g.has_edge(3, 0));
  // Nodes survive the purge (only Line 25 removes nodes).
  EXPECT_TRUE(g.has_node(1));
}

TEST(LabeledDigraphTest, PurgeWithNonpositiveCutoffIsNoop) {
  LabeledDigraph g(4, 0);
  g.set_edge(1, 0, 1);
  purge_labels_up_to(g, 0);
  purge_labels_up_to(g, -3);
  EXPECT_TRUE(g.has_edge(1, 0));
}

TEST(LabeledDigraphTest, PruneKeepsNodesReachingOwner) {
  LabeledDigraph g(6, 0);
  g.set_edge(1, 0, 3);  // 1 -> 0: kept
  g.set_edge(2, 1, 3);  // 2 -> 1 -> 0: kept
  g.set_edge(0, 3, 3);  // 3 only reachable FROM 0: pruned
  g.set_edge(4, 5, 3);  // disconnected pair: pruned
  prune_not_reaching(g, 0);
  EXPECT_EQ(g.nodes(), ProcSet::of(6, {0, 1, 2}));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_edge(4, 5));
}

TEST(LabeledDigraphTest, PruneKeepsOwnerAlways) {
  LabeledDigraph g(3, 1);
  prune_not_reaching(g, 1);
  EXPECT_TRUE(g.has_node(1));
  EXPECT_EQ(g.nodes().count(), 1);
}

TEST(LabeledDigraphTest, PruneReturnsKeepSetAndCountsOneFixpoint) {
  LabeledDigraph g(6, 0);
  g.set_edge(1, 0, 3);
  g.set_edge(2, 1, 3);
  g.set_edge(0, 3, 3);
  g.set_edge(4, 5, 3);

  const std::int64_t before =
      metrics::total(metrics::Counter::kReachabilityComputations);
  const ProcSet keep = prune_not_reaching(g, 0);
  EXPECT_EQ(metrics::total(metrics::Counter::kReachabilityComputations),
            before + 1);
  EXPECT_EQ(keep, ProcSet::of(6, {0, 1, 2}));
  EXPECT_EQ(g.nodes(), keep);
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_FALSE(g.has_edge(4, 5));
  EXPECT_EQ(g.label(2, 1), 3);
}

TEST(LabeledDigraphTest, PruneDropsEdgesBetweenKeptAndPruned) {
  LabeledDigraph g(5, 0);
  g.set_edge(1, 0, 2);
  g.set_edge(0, 2, 2);  // 2 cannot reach 0
  g.set_edge(1, 2, 2);  // edge from kept node into pruned node
  prune_not_reaching(g, 0);
  EXPECT_FALSE(g.has_node(2));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(1, 0));
}

TEST(LabeledDigraphTest, UnlabeledMatchesStructure) {
  LabeledDigraph g(4, 0);
  g.set_edge(1, 0, 3);
  g.set_edge(2, 1, 4);
  const Digraph u = g.unlabeled();
  EXPECT_EQ(u.nodes(), g.nodes());
  EXPECT_TRUE(u.has_edge(1, 0));
  EXPECT_TRUE(u.has_edge(2, 1));
  EXPECT_EQ(u.edge_count(), 2);
}

TEST(LabeledDigraphTest, StronglyConnectedCases) {
  LabeledDigraph g(4, 0);
  // Single node, no edges: trivially strongly connected.
  EXPECT_TRUE(g.strongly_connected());
  g.set_edge(1, 0, 1);
  EXPECT_FALSE(g.strongly_connected());
  g.set_edge(0, 1, 1);
  EXPECT_TRUE(g.strongly_connected());
  g.set_edge(2, 0, 1);  // 2 has no in-edge from the cycle
  EXPECT_FALSE(g.strongly_connected());
  g.set_edge(1, 2, 1);
  EXPECT_TRUE(g.strongly_connected());
}

TEST(LabeledDigraphTest, MinMaxLabel) {
  LabeledDigraph g(4, 0);
  g.set_edge(1, 0, 4);
  g.set_edge(2, 0, 9);
  g.set_edge(3, 0, 6);
  EXPECT_EQ(g.min_label(), 4);
  EXPECT_EQ(g.max_label(), 9);
}

TEST(LabeledDigraphTest, ToStringListsEdges) {
  LabeledDigraph g(3, 0);
  g.set_edge(1, 0, 2);
  const std::string s = g.to_string();
  EXPECT_NE(s.find("p1 -2-> p0"), std::string::npos);
}

TEST(LabeledDigraphTest, SelfLoopCountsForConnectivityScan) {
  // A loner's graph: {p} with a self-loop (as in the Theorem 2 run).
  LabeledDigraph g(4, 2);
  g.set_edge(2, 2, 1);
  EXPECT_TRUE(g.strongly_connected());
  EXPECT_EQ(g.edge_count(), 1);
}

}  // namespace
}  // namespace sskel
