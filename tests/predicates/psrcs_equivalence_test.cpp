// Randomized equivalence of the branch-and-bound Psrcs(k) decision
// procedure against the brute-force C(n, k+1) enumeration
// (tests/oracles/psrcs_bruteforce.hpp): identical verdicts on every
// instance (random digraphs with n <= 12 over all k, with and without
// absent nodes, the Theorem 2 impossibility graphs, and random Psrcs
// adversary skeletons), with strictly fewer subsets visited on the
// designated non-trivial instances.
#include <gtest/gtest.h>

#include "adversary/impossibility.hpp"
#include "adversary/random_psrcs.hpp"
#include "oracles/psrcs_bruteforce.hpp"
#include "predicates/psrcs.hpp"
#include "util/rng.hpp"

namespace sskel {
namespace {

Digraph random_digraph(ProcId n, double density, Rng& rng) {
  Digraph g(n);
  g.add_self_loops();
  for (ProcId q = 0; q < n; ++q) {
    for (ProcId p = 0; p < n; ++p) {
      if (q != p && rng.next_bool(density)) g.add_edge(q, p);
    }
  }
  return g;
}

/// Both checkers must agree on the verdict, and a reported violating
/// subset must be a genuine counterexample: k+1 members, no 2-source.
void expect_equivalent(const Digraph& g, int k) {
  const PsrcsCheck pruned = check_psrcs_exact(g, k);
  const PsrcsCheck brute = oracles::check_psrcs_bruteforce(g, k);
  ASSERT_EQ(pruned.holds, brute.holds)
      << "n=" << g.n() << " k=" << k << " graph=" << g.to_string();
  if (!pruned.holds) {
    ASSERT_TRUE(pruned.violating_subset.has_value());
    EXPECT_EQ(pruned.violating_subset->count(), k + 1);
    EXPECT_FALSE(find_two_source(g, *pruned.violating_subset).has_value());
  }
}

TEST(PsrcsEquivalence, RandomDigraphsAllK) {
  Rng rng(0x5EED);
  Rng absent_rng(0xAB5E);
  for (int trial = 0; trial < 60; ++trial) {
    const ProcId n = static_cast<ProcId>(3 + rng.next_below(10));  // 3..12
    const double density = 0.05 + 0.9 * rng.next_double();
    Digraph g = random_digraph(n, density, rng);
    for (int k = 1; k < n; ++k) expect_equivalent(g, k);
    // The same skeleton after it lost 1..n-1 processes. Eq. (8) still
    // ranges over all of Pi, and an absent process hears nobody, so it
    // forms a sourceless pair with every other process: both checkers
    // must count it.
    const ProcId absent = static_cast<ProcId>(
        1 + absent_rng.next_below(static_cast<std::uint64_t>(n - 1)));
    while (n - g.nodes().count() < absent) {
      g.remove_node(static_cast<ProcId>(
          absent_rng.next_below(static_cast<std::uint64_t>(n))));
    }
    for (int k = 1; k < n; ++k) expect_equivalent(g, k);
  }
}

TEST(PsrcsEquivalence, VacuousWhenSubsetsTooLarge) {
  Rng rng(0x7);
  const Digraph g = random_digraph(5, 0.4, rng);
  for (int k = 5; k <= 7; ++k) expect_equivalent(g, k);  // k + 1 > n
}

TEST(PsrcsEquivalence, ImpossibilityInstances) {
  // impossibility_graph(n, k) satisfies Psrcs(k) but violates
  // Psrcs(k-1): the k-1 loners plus the 2-source form a sourceless
  // k-subset. Both checkers must see both sides.
  for (ProcId n = 5; n <= 12; ++n) {
    for (int k = 2; k < n; ++k) {
      const Digraph g = impossibility_graph(n, k);
      expect_equivalent(g, k);
      expect_equivalent(g, k - 1);
      EXPECT_TRUE(check_psrcs_exact(g, k).holds) << "n=" << n << " k=" << k;
      if (k > 1) {
        EXPECT_FALSE(check_psrcs_exact(g, k - 1).holds)
            << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(PsrcsEquivalence, StrictlyFewerSubsetsOnNonTrivialInstances) {
  // On satisfied instances with real structure (the stable skeletons
  // of random Psrcs(k) adversaries) the branch-and-bound search must
  // visit strictly fewer subsets than the full enumeration — this is
  // the pruning claim of the PR, pinned as a test.
  struct Instance {
    ProcId n;
    int k;
  };
  const Instance instances[] = {{10, 2}, {12, 3}, {14, 3}, {16, 4}};
  for (const Instance& inst : instances) {
    RandomPsrcsParams params;
    params.n = inst.n;
    params.k = inst.k;
    params.root_components = inst.k;
    RandomPsrcsSource source(0xBB, params);
    const Digraph& skel = source.stable_skeleton();
    const PsrcsCheck pruned = check_psrcs_exact(skel, inst.k);
    const PsrcsCheck brute = oracles::check_psrcs_bruteforce(skel, inst.k);
    ASSERT_TRUE(pruned.holds);
    ASSERT_TRUE(brute.holds);
    EXPECT_LT(pruned.subsets_checked, brute.subsets_checked)
        << "n=" << inst.n << " k=" << inst.k;
  }
}

}  // namespace
}  // namespace sskel
