// Unit tests for the LemmaMonitor itself: it must accept honest
// algorithm state and flag corrupted state.
#include "skeleton/lemmas.hpp"

#include <gtest/gtest.h>

#include "adversary/figure1.hpp"
#include "kset/runner.hpp"
#include "skeleton/intern.hpp"

namespace sskel {
namespace {

TEST(LemmaMonitorTest, CleanOnFigure1Run) {
  auto source = make_figure1_source();
  KSetRunConfig config;
  config.k = kFigure1K;
  config.attach_lemma_monitor = true;
  config.tail_rounds = 8;
  const KSetRunReport report = run_kset(*source, config);
  EXPECT_TRUE(report.all_decided);
  EXPECT_TRUE(report.lemma_violations.empty())
      << report.lemma_violations.front();
}

/// Fabricates a snapshot vector for a 2-process system where both
/// processes honestly track PT and graphs, then corrupts one field.
class MonitorFixture : public ::testing::Test {
 protected:
  static constexpr ProcId kN = 2;

  static Digraph full_graph() {
    Digraph g = Digraph::complete(kN);
    return g;
  }

  static std::vector<ProcessSnapshot> honest_round1() {
    std::vector<ProcessSnapshot> snaps(kN);
    for (ProcId p = 0; p < kN; ++p) {
      auto& s = snaps[static_cast<std::size_t>(p)];
      s.pt = ProcSet::full(kN);
      s.approx = LabeledDigraph(kN, p);
      // Line 17 of round 1: both in-edges with label 1.
      s.approx.set_edge(0, p, 1);
      s.approx.set_edge(1, p, 1);
      // The mutual edges make the approximation strongly connected,
      // matching what merge would produce after a couple of rounds;
      // for round 1 the other node's in-edges are not yet known, which
      // is also valid (Lemma 5 only binds from r >= n).
      s.estimate = 100 * p + 7;
      s.decided = false;
    }
    return snaps;
  }
};

TEST_F(MonitorFixture, AcceptsHonestRound) {
  LemmaMonitor monitor(kN);
  monitor.observe_round(1, full_graph(), honest_round1());
  EXPECT_TRUE(monitor.violations().empty())
      << monitor.violations().front();
}

TEST_F(MonitorFixture, FlagsMissingOwnerNode) {
  LemmaMonitor monitor(kN);
  auto snaps = honest_round1();
  // Corrupt: process 0's graph claims to be owned by process 1.
  snaps[0].approx = LabeledDigraph(kN, 1);
  snaps[0].approx.set_edge(1, 1, 1);
  monitor.observe_round(1, full_graph(), snaps);
  ASSERT_FALSE(monitor.violations().empty());
  EXPECT_NE(monitor.violations()[0].find("Obs.1"), std::string::npos);
}

TEST_F(MonitorFixture, FlagsStaleLabel) {
  LemmaMonitor monitor(kN);
  // Advance three honest rounds so that a label of round 1 is stale
  // (window n = 2 means labels <= r - 2 must be purged).
  monitor.observe_round(1, full_graph(), honest_round1());
  auto snaps = honest_round1();
  for (auto& s : snaps) {
    // pretend round-3 state but leave a round-1 label in place
    s.approx.set_edge(0, 0, 1);
  }
  // Fix up the self rows to round 3 to isolate the staleness check.
  for (ProcId p = 0; p < kN; ++p) {
    auto& s = snaps[static_cast<std::size_t>(p)];
    s.approx.set_edge(0, p, 3);
    s.approx.set_edge(1, p, 3);
  }
  snaps[1].approx.set_edge(0, 0, 1);  // stale: 1 <= 3 - 2
  monitor.observe_round(2, full_graph(), honest_round1());
  monitor.observe_round(3, full_graph(), snaps);
  bool found = false;
  for (const auto& v : monitor.violations()) {
    if (v.find("stale label") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(MonitorFixture, FlagsWrongPt) {
  LemmaMonitor monitor(kN);
  auto snaps = honest_round1();
  snaps[0].pt = ProcSet::singleton(kN, 0);  // lies about timeliness
  monitor.observe_round(1, full_graph(), snaps);
  bool found = false;
  for (const auto& v : monitor.violations()) {
    if (v.find("Lemma 3") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(MonitorFixture, FlagsFabricatedEdge) {
  LemmaMonitor monitor(kN);
  // Round 1: edge (1 -> 0) absent from the communication graph, yet
  // process 0 claims label-1 knowledge of it.
  Digraph g(kN);
  g.add_self_loops();
  g.add_edge(0, 1);  // only 0 -> 1

  std::vector<ProcessSnapshot> snaps(kN);
  for (ProcId p = 0; p < kN; ++p) {
    auto& s = snaps[static_cast<std::size_t>(p)];
    s.approx = LabeledDigraph(kN, p);
    s.estimate = p;
  }
  snaps[0].pt = ProcSet::singleton(kN, 0);
  snaps[0].approx.set_edge(0, 0, 1);
  snaps[0].approx.set_edge(1, 0, 1);  // fabricated: 1 not in PT(0, 1)
  snaps[1].pt = ProcSet::full(kN);
  snaps[1].approx.set_edge(0, 1, 1);
  snaps[1].approx.set_edge(1, 1, 1);
  monitor.observe_round(1, g, snaps);
  bool found = false;
  for (const auto& v : monitor.violations()) {
    if (v.find("Lemma 6") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(MonitorFixture, FlagsEstimateIncrease) {
  LemmaMonitor monitor(kN);
  auto snaps = honest_round1();
  monitor.observe_round(1, full_graph(), snaps);
  snaps[0].estimate += 50;  // estimates must be non-increasing
  // keep graphs honest for round 2
  for (ProcId p = 0; p < kN; ++p) {
    auto& s = snaps[static_cast<std::size_t>(p)];
    s.approx.set_edge(0, p, 2);
    s.approx.set_edge(1, p, 2);
  }
  monitor.observe_round(2, full_graph(), snaps);
  bool found = false;
  for (const auto& v : monitor.violations()) {
    if (v.find("Obs.2") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

using LemmaMonitorDeathTest = MonitorFixture;

TEST_F(LemmaMonitorDeathTest, AttachInternRejectsNull) {
  LemmaMonitor monitor(kN);
  EXPECT_DEATH(monitor.attach_intern(nullptr), "precondition");
}

TEST_F(LemmaMonitorDeathTest, AttachInternAfterFirstAnalyticsAborts) {
  // From round n on, Lemma 5 queries the tracker's SCC analytics, after
  // which the tracker can no longer switch to an intern table.
  LemmaMonitor monitor(kN);
  auto snaps = honest_round1();
  monitor.observe_round(1, full_graph(), snaps);
  for (ProcId p = 0; p < kN; ++p) {
    auto& s = snaps[static_cast<std::size_t>(p)];
    s.approx.set_edge(0, p, 2);
    s.approx.set_edge(1, p, 2);
  }
  monitor.observe_round(kN, full_graph(), snaps);
  StructureInternTable table;
  EXPECT_DEATH(monitor.attach_intern(&table), "precondition");
}

}  // namespace
}  // namespace sskel
