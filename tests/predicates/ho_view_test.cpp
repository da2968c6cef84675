// Tests for the HO / RbR-fault-detector correspondences (Eq. (6), (7)).
#include "oracles/ho_view.hpp"

#include <gtest/gtest.h>

#include "skeleton/tracker.hpp"
#include "util/rng.hpp"

namespace sskel {
namespace {

using oracles::HoRecorder;

Digraph random_graph(Rng& rng, ProcId n, double density) {
  Digraph g(n);
  g.add_self_loops();
  for (ProcId q = 0; q < n; ++q) {
    for (ProcId p = 0; p < n; ++p) {
      if (q != p && rng.next_bool(density)) g.add_edge(q, p);
    }
  }
  return g;
}

TEST(HoRecorderTest, HoSetsMatchInNeighbors) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 1);
  g.add_edge(1, 3);
  HoRecorder rec(4);
  rec.record(1, g);
  EXPECT_EQ(rec.ho(1, 1), ProcSet::of(4, {0, 2}));
  EXPECT_EQ(rec.ho(3, 1), ProcSet::of(4, {1}));
  EXPECT_EQ(rec.ho(0, 1), ProcSet(4));
}

TEST(HoRecorderTest, DIsComplementOfHo) {
  Digraph g(4);
  g.add_self_loops();
  g.add_edge(0, 1);
  HoRecorder rec(4);
  rec.record(1, g);
  EXPECT_EQ(rec.d(1, 1), ProcSet::of(4, {2, 3}));
  EXPECT_EQ(rec.d(1, 1) | rec.ho(1, 1), ProcSet::full(4));
}

TEST(HoRecorderTest, Equation7BothFormsAgree) {
  // PT via running HO intersection == PT via complement of D union.
  Rng rng(42);
  HoRecorder rec(6);
  for (Round r = 1; r <= 8; ++r) rec.record(r, random_graph(rng, 6, 0.5));
  for (Round r = 1; r <= 8; ++r) {
    for (ProcId p = 0; p < 6; ++p) {
      EXPECT_EQ(rec.pt_via_ho(p, r), rec.pt_via_d(p, r))
          << "p=" << p << " r=" << r;
    }
  }
}

TEST(HoRecorderTest, Equation6SkeletonMatchesHoIntersection) {
  // (q -> p) in E∩r  <=>  q in HO(p, r') for all r' <= r.
  Rng rng(7);
  HoRecorder rec(5);
  SkeletonTracker tracker(5);
  for (Round r = 1; r <= 10; ++r) {
    const Digraph g = random_graph(rng, 5, 0.6);
    rec.record(r, g);
    tracker.observe(r, g);
    for (ProcId p = 0; p < 5; ++p) {
      EXPECT_EQ(tracker.pt(p), rec.pt_via_ho(p, r)) << "p=" << p << " r=" << r;
    }
  }
}

TEST(HoRecorderTest, PtShrinksMonotonically) {
  // Eq. (3): PT(p, r) superset PT(p, r+1).
  Rng rng(13);
  HoRecorder rec(6);
  for (Round r = 1; r <= 12; ++r) rec.record(r, random_graph(rng, 6, 0.4));
  for (ProcId p = 0; p < 6; ++p) {
    for (Round r = 1; r < 12; ++r) {
      EXPECT_TRUE(rec.pt_via_ho(p, r + 1).is_subset_of(rec.pt_via_ho(p, r)));
    }
  }
}

}  // namespace
}  // namespace sskel
