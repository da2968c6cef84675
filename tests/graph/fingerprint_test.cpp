// Tests for the 128-bit structure fingerprint feeding the intern
// table. The contract is deliberately modest: equal structures hash
// equal (determinism, seed-sensitivity), and distinct
// structures *almost always* hash different — the table tolerates
// collisions, so the tests only pin down the properties callers rely
// on, plus an empirical no-collision sweep over many small graphs.
#include "graph/fingerprint.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "graph/digraph.hpp"
#include "util/rng.hpp"

namespace sskel {
namespace {

Digraph random_graph(ProcId n, Rng& rng, int edge_percent) {
  Digraph g(n);
  for (ProcId u = 0; u < n; ++u) {
    for (ProcId v = 0; v < n; ++v) {
      if (rng.next_below(100) < static_cast<std::uint64_t>(edge_percent)) {
        g.add_edge(u, v);
      }
    }
  }
  return g;
}

TEST(FingerprintTest, DeterministicForEqualStructures) {
  Rng rng(11);
  const Digraph g = random_graph(20, rng, 30);
  const Digraph copy = g;
  EXPECT_EQ(fingerprint_structure(g, 1), fingerprint_structure(copy, 1));
}

TEST(FingerprintTest, SensitiveToSingleEdge) {
  Digraph a(8);
  a.add_edge(1, 2);
  Digraph b(8);
  b.add_edge(1, 2);
  b.add_edge(2, 1);
  EXPECT_NE(fingerprint_structure(a, 1), fingerprint_structure(b, 1));
}

TEST(FingerprintTest, SensitiveToNodePresence) {
  // Same (empty) edge rows, different node sets.
  Digraph a(8);
  Digraph b(8);
  b.remove_node(3);
  EXPECT_NE(fingerprint_structure(a, 1), fingerprint_structure(b, 1));
}

TEST(FingerprintTest, SensitiveToUniverseSize) {
  // An empty graph over 8 nodes is not an empty graph over 9: n is
  // mixed first, so padding with absent nodes changes the print.
  Digraph a(8);
  for (ProcId p = 0; p < 8; ++p) a.remove_node(p);
  Digraph b(9);
  for (ProcId p = 0; p < 9; ++p) b.remove_node(p);
  EXPECT_NE(fingerprint_structure(a, 1), fingerprint_structure(b, 1));
}

TEST(FingerprintTest, SeedChangesFingerprint) {
  Rng rng(5);
  const Digraph g = random_graph(12, rng, 25);
  EXPECT_NE(fingerprint_structure(g, 1), fingerprint_structure(g, 2));
}

TEST(FingerprintTest, WordOrderMatters) {
  FingerprintBuilder ab(0);
  ab.mix_word(1);
  ab.mix_word(2);
  FingerprintBuilder ba(0);
  ba.mix_word(2);
  ba.mix_word(1);
  EXPECT_NE(ab.finish(), ba.finish());
}

TEST(FingerprintTest, NoCollisionsAcrossManyRandomGraphs) {
  // 2000 random graphs over mixed sizes/densities: any repeated
  // fingerprint must come from a structurally identical graph. A
  // genuine 128-bit collision in this sweep would be astronomically
  // unlikely — a failure here means the mixer lost entropy.
  struct Key {
    std::uint64_t lo;
    std::uint64_t hi;
    bool operator<(const Key& other) const {
      return lo != other.lo ? lo < other.lo : hi < other.hi;
    }
  };
  std::map<Key, Digraph> seen;
  Rng rng(0xf1f2);
  int duplicates = 0;
  for (int i = 0; i < 2000; ++i) {
    const ProcId n = static_cast<ProcId>(2 + rng.next_below(20));
    Digraph g = random_graph(n, rng,
                             5 + static_cast<int>(rng.next_below(90)));
    const Fingerprint128 fp = fingerprint_structure(g, 77);
    auto [it, inserted] = seen.try_emplace(Key{fp.lo, fp.hi}, g);
    if (!inserted) {
      ++duplicates;
      const Digraph& prev = it->second;
      ASSERT_EQ(prev.n(), g.n()) << "collision across sizes at i=" << i;
      EXPECT_EQ(prev.nodes(), g.nodes());
      for (ProcId u = 0; u < g.n(); ++u) {
        EXPECT_EQ(prev.out_neighbors(u), g.out_neighbors(u))
            << "row mismatch under equal fingerprint at i=" << i;
      }
    }
  }
  // Small graphs repeat structurally; just make sure the sweep did not
  // degenerate into one bucket.
  EXPECT_LT(duplicates, 2000);
}

}  // namespace
}  // namespace sskel
