// Unit tests for Digraph.
#include "graph/digraph.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace sskel {
namespace {

TEST(DigraphTest, EmptyGraph) {
  Digraph g(5);
  EXPECT_EQ(g.n(), 5);
  EXPECT_EQ(g.node_count(), 5);
  EXPECT_EQ(g.edge_count(), 0);
}

TEST(DigraphTest, CompleteGraph) {
  const Digraph g = Digraph::complete(4);
  EXPECT_EQ(g.edge_count(), 16);  // self-loops included
  for (ProcId q = 0; q < 4; ++q) {
    for (ProcId p = 0; p < 4; ++p) EXPECT_TRUE(g.has_edge(q, p));
  }
}

TEST(DigraphTest, SelfLoopsOnly) {
  const Digraph g = Digraph::self_loops_only(4);
  EXPECT_EQ(g.edge_count(), 4);
  EXPECT_TRUE(g.has_edge(2, 2));
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(DigraphTest, AddRemoveEdgeMirrorsInOut) {
  Digraph g(4);
  g.add_edge(1, 2);
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(2, 1));
  EXPECT_TRUE(g.out_neighbors(1).contains(2));
  EXPECT_TRUE(g.in_neighbors(2).contains(1));
  g.remove_edge(1, 2);
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_TRUE(g.out_neighbors(1).empty());
  EXPECT_TRUE(g.in_neighbors(2).empty());
}

TEST(DigraphTest, RemoveNodeDropsIncidentEdges) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 1);
  g.remove_node(1);
  EXPECT_FALSE(g.has_node(1));
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_TRUE(g.out_neighbors(0).empty());
  EXPECT_TRUE(g.in_neighbors(2).empty());
}

TEST(DigraphTest, IntersectionOfEdges) {
  Digraph a(4);
  a.add_edge(0, 1);
  a.add_edge(1, 2);
  a.add_edge(2, 3);
  Digraph b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  b.add_edge(3, 0);
  a.intersect_with(b);
  EXPECT_TRUE(a.has_edge(0, 1));
  EXPECT_TRUE(a.has_edge(2, 3));
  EXPECT_FALSE(a.has_edge(1, 2));
  EXPECT_FALSE(a.has_edge(3, 0));
  EXPECT_EQ(a.edge_count(), 2);
}

TEST(DigraphTest, IntersectionRespectsNodes) {
  Digraph a(4);
  a.add_edge(0, 1);
  a.add_edge(2, 3);
  Digraph b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  b.remove_node(3);
  a.intersect_with(b);
  EXPECT_FALSE(a.has_node(3));
  EXPECT_FALSE(a.has_edge(2, 3));
  EXPECT_TRUE(a.has_edge(0, 1));
}

TEST(DigraphTest, UnionOfEdges) {
  Digraph a(3);
  a.add_edge(0, 1);
  Digraph b(3);
  b.add_edge(1, 2);
  a.union_with(b);
  EXPECT_TRUE(a.has_edge(0, 1));
  EXPECT_TRUE(a.has_edge(1, 2));
}

TEST(DigraphTest, InducedSubgraph) {
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  const Digraph sub = g.induced(ProcSet::of(5, {0, 1, 2}));
  EXPECT_EQ(sub.node_count(), 3);
  EXPECT_TRUE(sub.has_edge(0, 1));
  EXPECT_TRUE(sub.has_edge(1, 2));
  EXPECT_FALSE(sub.has_node(3));
  EXPECT_EQ(sub.edge_count(), 2);
}

TEST(DigraphTest, SubgraphRelation) {
  Digraph small(4);
  small.add_edge(0, 1);
  Digraph big = small;
  big.add_edge(1, 2);
  EXPECT_TRUE(small.is_subgraph_of(big));
  EXPECT_FALSE(big.is_subgraph_of(small));
  EXPECT_TRUE(big.is_subgraph_of(big));
}

TEST(DigraphTest, AddSelfLoops) {
  Digraph g(3);
  g.remove_node(2);
  g.add_self_loops();
  EXPECT_TRUE(g.has_edge(0, 0));
  EXPECT_TRUE(g.has_edge(1, 1));
  EXPECT_FALSE(g.has_edge(2, 2));  // absent node gets no loop
}

TEST(DigraphTest, EqualityAndDot) {
  Digraph a(3);
  a.add_edge(0, 1);
  Digraph b(3);
  b.add_edge(0, 1);
  EXPECT_EQ(a, b);
  b.add_edge(1, 2);
  EXPECT_NE(a, b);

  const std::string dot = b.to_dot("g");
  EXPECT_NE(dot.find("p0 -> p1"), std::string::npos);
  EXPECT_NE(dot.find("digraph g"), std::string::npos);
}

TEST(DigraphTest, SkeletonIntersectionChainIsMonotone) {
  // Property (1) of the paper: intersecting any sequence of graphs
  // yields a monotonically shrinking skeleton.
  Digraph skel = Digraph::complete(6);
  Digraph round1 = Digraph::complete(6);
  round1.remove_edge(0, 3);
  Digraph round2 = Digraph::complete(6);
  round2.remove_edge(1, 4);

  Digraph prev = skel;
  for (const Digraph& g : {round1, round2, round1}) {
    skel.intersect_with(g);
    EXPECT_TRUE(skel.is_subgraph_of(prev));
    prev = skel;
  }
  EXPECT_FALSE(skel.has_edge(0, 3));
  EXPECT_FALSE(skel.has_edge(1, 4));
  EXPECT_EQ(skel.edge_count(), 34);
}

TEST(DigraphTest, IntersectWithReportsWhetherAnythingShrank) {
  Digraph a = Digraph::complete(4);
  EXPECT_FALSE(a.intersect_with(Digraph::complete(4)));  // identical

  Digraph b = Digraph::complete(4);
  b.remove_edge(0, 1);
  EXPECT_TRUE(a.intersect_with(b));   // removed exactly (0 -> 1)
  EXPECT_FALSE(a.intersect_with(b));  // already a subgraph: no-op
  EXPECT_FALSE(a.has_edge(0, 1));
}

TEST(DigraphTest, IntersectWithReportsNodeRemoval) {
  Digraph a = Digraph::self_loops_only(3);
  Digraph b = Digraph::self_loops_only(3);
  b.remove_node(2);
  EXPECT_TRUE(a.intersect_with(b));
  EXPECT_FALSE(a.nodes().contains(2));
  EXPECT_FALSE(a.intersect_with(b));
}

TEST(DigraphTest, OrInRows64MatchesPerEdgeInsertion) {
  // The transpose-based bulk landing must agree with add_edge in BOTH
  // directions (in_ and out_ rows) on random asymmetric matrices.
  // Symmetric graphs cannot catch an orientation bug: a transposed
  // edge set looks identical there. Sparse rows (density 1/128) take
  // the per-block scatter, dense ones the 64 x 64 transpose, and
  // n > 64 spans several blocks.
  Rng rng(0x64646464);
  for (const ProcId n : {1, 3, 31, 64, 65, 130}) {
    for (const bool sparse : {false, true}) {
      const std::size_t span = (static_cast<std::size_t>(n) + 63) / 64;
      std::vector<std::uint64_t> rows(static_cast<std::size_t>(n) * span);
      Digraph expected(n);
      for (ProcId p = 0; p < n; ++p) {
        for (std::size_t w = 0; w < span; ++w) {
          const ProcId base = static_cast<ProcId>(64 * w);
          const ProcId width = std::min<ProcId>(64, n - base);
          std::uint64_t bits = width == 64
                                   ? rng.next_u64()
                                   : rng.next_u64() &
                                         ((std::uint64_t{1} << width) - 1);
          for (int i = 0; sparse && i < 6; ++i) bits &= rng.next_u64();
          rows[static_cast<std::size_t>(p) * span + w] = bits;
          for (; bits != 0; bits &= bits - 1) {
            // bit q of row p = edge q -> p
            expected.add_edge(base + std::countr_zero(bits), p);
          }
        }
      }
      Digraph actual(n);
      actual.or_in_rows(rows.data());
      EXPECT_EQ(actual.edge_count(), expected.edge_count()) << "n=" << n;
      for (ProcId q = 0; q < n; ++q) {
        for (ProcId p = 0; p < n; ++p) {
          EXPECT_EQ(actual.has_edge(q, p), expected.has_edge(q, p))
              << "n=" << n << " edge " << q << "->" << p;
        }
        EXPECT_EQ(actual.in_neighbors(q), expected.in_neighbors(q));
        EXPECT_EQ(actual.out_neighbors(q), expected.out_neighbors(q));
      }
    }
  }
}

TEST(DigraphTest, OrInRows64SkewRow) {
  // A down-link-style asymmetric shape: only p=2 hears anyone. The
  // anti-diagonal mirror of this graph is different, so this pins the
  // transpose orientation directly.
  Digraph g(5);
  std::vector<std::uint64_t> rows(5, 0);
  rows[2] = 0b11011;  // everyone but q=2 reaches p=2
  g.or_in_rows(rows.data());
  EXPECT_EQ(g.edge_count(), 4);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(4, 2));
  EXPECT_FALSE(g.has_edge(2, 2));
  EXPECT_FALSE(g.has_edge(2, 0));  // the mirrored edge must NOT exist
  EXPECT_FALSE(g.has_edge(2, 4));
}

TEST(DigraphTest, OrInRows64AccumulatesLikeOr) {
  // Repeated landings OR into the existing edge set.
  Digraph g(3);
  std::vector<std::uint64_t> rows(3, 0);
  rows[0] = 0b001;  // 0 -> 0
  g.or_in_rows(rows.data());
  rows[0] = 0b100;  // 2 -> 0
  rows[1] = 0b010;  // 1 -> 1
  g.or_in_rows(rows.data());
  EXPECT_EQ(g.edge_count(), 3);
  EXPECT_TRUE(g.has_edge(0, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_TRUE(g.has_edge(1, 1));
}

TEST(DigraphTest, ResetRestoresEmptyEdgesFullNodes) {
  Digraph g = Digraph::complete(4);
  g.remove_node(1);
  g.reset();
  EXPECT_EQ(g.node_count(), 4);
  EXPECT_EQ(g.edge_count(), 0);
  EXPECT_EQ(g, Digraph(4));
}

TEST(DigraphTest, AddInEdgesBulkMatchesPerEdge) {
  const ProcId n = 70;  // crosses a word boundary
  ProcSet senders(n);
  for (ProcId q = 0; q < n; q += 3) senders.insert(q);
  Digraph bulk(n);
  bulk.add_in_edges(/*p=*/65, senders);
  Digraph scalar(n);
  for (ProcId q : senders) scalar.add_edge(q, 65);
  EXPECT_EQ(bulk, scalar);
}

}  // namespace
}  // namespace sskel
