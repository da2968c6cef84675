// Unit tests for ProcSet: the set algebra everything else rests on.
#include "util/proc_set.hpp"

#include <gtest/gtest.h>

#include <set>

// The k-subset enumerator lives with the brute-force Psrcs(k) oracle,
// its only user.
#include "oracles/psrcs_bruteforce.hpp"

namespace sskel {
namespace {

TEST(ProcSetTest, EmptyAndFull) {
  ProcSet empty(10);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.count(), 0);
  EXPECT_EQ(empty.universe(), 10);

  ProcSet full = ProcSet::full(10);
  EXPECT_FALSE(full.empty());
  EXPECT_EQ(full.count(), 10);
  for (ProcId p = 0; p < 10; ++p) EXPECT_TRUE(full.contains(p));
}

TEST(ProcSetTest, FullTrimsBeyondUniverse) {
  // Universe sizes around the 64-bit word boundary must not leak bits.
  for (ProcId n : {1, 63, 64, 65, 127, 128, 129}) {
    ProcSet full = ProcSet::full(n);
    EXPECT_EQ(full.count(), n) << "n=" << n;
    EXPECT_EQ(full.to_vector().size(), static_cast<std::size_t>(n));
  }
}

TEST(ProcSetTest, InsertEraseContains) {
  ProcSet s(100);
  s.insert(3);
  s.insert(64);
  s.insert(99);
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(64));
  EXPECT_TRUE(s.contains(99));
  EXPECT_FALSE(s.contains(4));
  EXPECT_EQ(s.count(), 3);
  s.erase(64);
  EXPECT_FALSE(s.contains(64));
  EXPECT_EQ(s.count(), 2);
  s.erase(64);  // idempotent
  EXPECT_EQ(s.count(), 2);
}

TEST(ProcSetTest, SingletonAndOf) {
  ProcSet s = ProcSet::singleton(8, 5);
  EXPECT_EQ(s.count(), 1);
  EXPECT_TRUE(s.contains(5));

  ProcSet t = ProcSet::of(8, {1, 3, 5});
  EXPECT_EQ(t.count(), 3);
  EXPECT_TRUE(t.contains(1));
  EXPECT_TRUE(t.contains(3));
  EXPECT_TRUE(t.contains(5));
}

TEST(ProcSetTest, SetAlgebra) {
  const ProcSet a = ProcSet::of(10, {1, 2, 3, 7});
  const ProcSet b = ProcSet::of(10, {2, 3, 4});

  EXPECT_EQ((a & b), ProcSet::of(10, {2, 3}));
  EXPECT_EQ((a | b), ProcSet::of(10, {1, 2, 3, 4, 7}));
  EXPECT_EQ((a - b), ProcSet::of(10, {1, 7}));
  EXPECT_EQ((b - a), ProcSet::of(10, {4}));
}

TEST(ProcSetTest, SubsetAndIntersects) {
  const ProcSet a = ProcSet::of(10, {1, 2});
  const ProcSet b = ProcSet::of(10, {1, 2, 3});
  const ProcSet c = ProcSet::of(10, {7, 8});

  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.is_subset_of(a));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
  // Empty set is a subset of anything and intersects nothing.
  const ProcSet empty(10);
  EXPECT_TRUE(empty.is_subset_of(a));
  EXPECT_FALSE(empty.intersects(a));
}

TEST(ProcSetTest, IterationAscending) {
  const ProcSet s = ProcSet::of(200, {0, 5, 63, 64, 65, 130, 199});
  std::vector<ProcId> seen;
  for (ProcId p : s) seen.push_back(p);
  EXPECT_EQ(seen, (std::vector<ProcId>{0, 5, 63, 64, 65, 130, 199}));
}

TEST(ProcSetTest, FirstAndNextAfter) {
  const ProcSet s = ProcSet::of(70, {5, 64});
  EXPECT_EQ(s.first(), 5);
  EXPECT_EQ(s.next_after(-1), 5);  // cursor before the beginning
  EXPECT_EQ(s.next_after(4), 5);
  EXPECT_EQ(s.next_after(5), 64);
  EXPECT_EQ(s.next_after(64), -1);
  EXPECT_EQ(ProcSet(70).first(), -1);
}

TEST(ProcSetTest, ToStringFormat) {
  EXPECT_EQ(ProcSet(4).to_string(), "{}");
  EXPECT_EQ(ProcSet::of(4, {0, 2}).to_string(), "{p0, p2}");
}

TEST(ProcSetTest, EraseCurrentWhileIterating) {
  // The purge/prune loops in LabeledDigraph erase the *current*
  // member while iterating; next_after only scans strictly greater
  // bits, so this is part of the iterator contract.
  ProcSet s = ProcSet::of(70, {1, 3, 5, 64, 66});
  std::vector<ProcId> seen;
  for (ProcId p : s) {
    seen.push_back(p);
    if (p == 3 || p == 64) s.erase(p);
  }
  EXPECT_EQ(seen, (std::vector<ProcId>{1, 3, 5, 64, 66}));
  EXPECT_EQ(s, ProcSet::of(70, {1, 5, 66}));
}

TEST(ProcSetTest, HashDistinguishesAndAgrees) {
  const ProcSet a = ProcSet::of(64, {1, 5});
  const ProcSet b = ProcSet::of(64, {1, 5});
  const ProcSet c = ProcSet::of(64, {1, 6});
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
}

TEST(ForEachSubsetTest, EnumeratesAllCombinations) {
  const ProcSet universe = ProcSet::full(6);
  int count = 0;
  std::set<std::uint64_t> distinct;
  oracles::for_each_subset(universe, 3, [&](const ProcSet& s) {
    EXPECT_EQ(s.count(), 3);
    distinct.insert(s.hash());
    ++count;
    return true;
  });
  EXPECT_EQ(count, 20);  // C(6,3)
  EXPECT_EQ(distinct.size(), 20u);
}

TEST(ForEachSubsetTest, RespectsRestrictedUniverseMembers) {
  const ProcSet members = ProcSet::of(10, {2, 4, 6, 8});
  int count = 0;
  oracles::for_each_subset(members, 2, [&](const ProcSet& s) {
    EXPECT_TRUE(s.is_subset_of(members));
    ++count;
    return true;
  });
  EXPECT_EQ(count, 6);  // C(4,2)
}

TEST(ForEachSubsetTest, EarlyExit) {
  int count = 0;
  const bool completed =
      oracles::for_each_subset(ProcSet::full(6), 2, [&](const ProcSet&) {
        ++count;
        return count < 3;
      });
  EXPECT_FALSE(completed);
  EXPECT_EQ(count, 3);
}

TEST(ForEachSubsetTest, DegenerateSizes) {
  int count = 0;
  // k = 0: exactly one (empty) subset.
  oracles::for_each_subset(ProcSet::full(4), 0, [&](const ProcSet& s) {
    EXPECT_TRUE(s.empty());
    ++count;
    return true;
  });
  EXPECT_EQ(count, 1);
  // k > |members|: no subsets.
  count = 0;
  EXPECT_TRUE(
      oracles::for_each_subset(ProcSet::full(3), 5, [&](const ProcSet&) {
        ++count;
        return true;
      }));
  EXPECT_EQ(count, 0);
}

}  // namespace
}  // namespace sskel
