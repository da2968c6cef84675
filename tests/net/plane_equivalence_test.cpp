// The bit-equality tripwire for the message plane (DESIGN.md §12):
// the same seeded run through the ring-plane NetRoundDriver and the
// event-queue oracle must produce identical KSetRunReports — same
// decisions, same derived skeletons, same message accounting, same
// simulated clock — under clean networks, lossy/flaky networks with
// late arrivals, deadline ties, and ring backpressure alike. The
// plane-mechanics counters (credit_stalls, ring_frags) exist only on
// the ring side.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/kset_net.hpp"
#include "oracles/event_queue_driver.hpp"

namespace sskel {
namespace {

void expect_reports_equal(const NetKSetReport& ring,
                          const NetKSetReport& eq) {
  const KSetRunReport& a = ring.kset;
  const KSetRunReport& b = eq.kset;
  EXPECT_EQ(a.n, b.n);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t p = 0; p < a.outcomes.size(); ++p) {
    EXPECT_EQ(a.outcomes[p].proposal, b.outcomes[p].proposal) << "p=" << p;
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
  EXPECT_EQ(a.verdict.last_decision_round, b.verdict.last_decision_round);
  EXPECT_EQ(a.all_decided, b.all_decided);
  EXPECT_EQ(a.rounds_executed, b.rounds_executed);
  EXPECT_EQ(a.last_decision_round, b.last_decision_round);
  EXPECT_EQ(a.distinct_values, b.distinct_values);
  EXPECT_EQ(a.final_skeleton, b.final_skeleton);
  EXPECT_EQ(a.skeleton_last_change, b.skeleton_last_change);
  EXPECT_EQ(a.root_components_final, b.root_components_final);
  EXPECT_EQ(a.total_messages, b.total_messages);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.max_message_bytes, b.max_message_bytes);
  EXPECT_EQ(a.lemma_violations, b.lemma_violations);

  EXPECT_EQ(ring.delivered_messages, eq.delivered_messages);
  EXPECT_EQ(ring.late_messages, eq.late_messages);
  EXPECT_EQ(ring.lost_messages, eq.lost_messages);
  EXPECT_EQ(ring.wall_clock, eq.wall_clock);
  // credit_stalls / ring_frags are ring mechanics; the oracle has none.
}

NetKSetReport run_on_ring(const LinkMatrix& links, NetKSetConfig config,
                          std::size_t ring_depth = 0) {
  config.net.ring_depth = ring_depth;
  return run_kset_over_network(links, config);
}

/// run_kset_over_network with the event-queue oracle as the engine.
NetKSetReport run_on_oracle(const LinkMatrix& links,
                            const NetKSetConfig& config) {
  oracles::EventQueueDriver<SkeletonMessage> driver(
      config.net, links, make_kset_processes(links.n(), config.run));
  NetKSetReport report;
  report.kset = run_kset_on_engine(driver, config.run);
  report.delivered_messages = driver.delivered_messages();
  report.late_messages = driver.late_messages();
  report.lost_messages = driver.lost_messages();
  report.wall_clock = driver.now();
  return report;
}

TEST(PlaneEquivalenceTest, CleanTimelyNetworkWithSkews) {
  const ProcId n = 6;
  NetKSetConfig config;
  config.run.k = 1;
  config.run.tail_rounds = 3;
  config.run.measure_bytes = true;
  config.net.round_duration = 1000;
  config.net.seed = 0x5EED01;
  for (ProcId p = 0; p < n; ++p) {
    config.net.skews.push_back((static_cast<SimTime>(p) * 137) % 900);
  }
  const LinkMatrix links = LinkMatrix::all_timely(n, 50, 400);
  expect_reports_equal(run_on_ring(links, config),
                       run_on_oracle(links, config));
}

TEST(PlaneEquivalenceTest, FlakyLossyNetworkWithLateArrivals) {
  const ProcId n = 7;
  NetKSetConfig config;
  config.run.k = 2;
  config.run.max_rounds = 40;
  config.run.tail_rounds = 2;
  config.net.round_duration = 800;
  config.net.seed = 0x5EED02;
  for (ProcId p = 0; p < n; ++p) {
    config.net.skews.push_back((static_cast<SimTime>(p) * 61) % 500);
  }
  // Timely 2-hub cover over a flaky remainder: real lates and losses.
  Digraph stable(n);
  stable.add_self_loops();
  for (ProcId p = 0; p < n; ++p) stable.add_edge(p % 2, p);
  LinkMatrix links = LinkMatrix::all_flaky(n, 0.5);
  links.upgrade_to_timely(stable, 100, 600);

  const NetKSetReport ring = run_on_ring(links, config);
  const NetKSetReport eq = run_on_oracle(links, config);
  expect_reports_equal(ring, eq);
  // The scenario must actually exercise the late/lost paths, or this
  // tripwire silently loses its teeth.
  EXPECT_GT(ring.late_messages, 0);
  EXPECT_GT(ring.lost_messages, 0);
}

TEST(PlaneEquivalenceTest, DeadlineTiesResolveIdentically) {
  // Fixed-delay links with delay == D land every arrival exactly on
  // the receiver's deadline — the one (time, seq) tie the ring plane
  // must reproduce analytically (close_precedes_delivery_at_tie).
  const ProcId n = 4;
  NetKSetConfig config;
  config.run.k = 1;
  config.run.max_rounds = 30;
  config.net.round_duration = 1000;
  config.net.seed = 0x5EED03;
  const LinkMatrix links = LinkMatrix::all_timely(n, 1000, 1000);
  const NetKSetReport ring = run_on_ring(links, config);
  const NetKSetReport eq = run_on_oracle(links, config);
  expect_reports_equal(ring, eq);
}

TEST(PlaneEquivalenceTest, TiedDeadlinesWithSkewedClocks) {
  // Mixed skews + exact-deadline delays: ties where the close-first
  // verdict differs per (sender, receiver) pair by skew and id order.
  const ProcId n = 5;
  NetKSetConfig config;
  config.run.k = 1;
  config.run.max_rounds = 30;
  config.run.tail_rounds = 2;
  config.net.round_duration = 1000;
  config.net.seed = 0x5EED04;
  config.net.skews = {0, 300, 0, 300, 600};
  const LinkMatrix links = LinkMatrix::all_timely(n, 1000, 1000);
  expect_reports_equal(run_on_ring(links, config),
                       run_on_oracle(links, config));
}

TEST(PlaneEquivalenceTest, TinyRingDepthBackpressureChangesNothing) {
  const ProcId n = 8;
  NetKSetConfig config;
  config.run.k = 1;
  config.run.tail_rounds = 2;
  config.net.round_duration = 1000;
  config.net.seed = 0x5EED05;
  for (ProcId p = 0; p < n; ++p) {
    config.net.skews.push_back((static_cast<SimTime>(p) * 201) % 1000);
  }
  const LinkMatrix links = LinkMatrix::all_timely(n, 30, 300);
  // Depth 4 against n-1 = 7 inbound publishes per round: early drains
  // must fire, and the report must not move an inch.
  const NetKSetReport ring =
      run_on_ring(links, config, /*ring_depth=*/4);
  const NetKSetReport eq = run_on_oracle(links, config);
  expect_reports_equal(ring, eq);
  EXPECT_GT(ring.credit_stalls, 0);
}

TEST(PlaneEquivalenceTest, RingFragCountMatchesDeliveries) {
  // On a clean all-timely network every non-self delivery crosses a
  // ring exactly once (no lates, no ties, no stall re-publishes).
  const ProcId n = 5;
  NetKSetConfig config;
  config.run.k = 1;
  config.net.seed = 0x5EED06;
  const LinkMatrix links = LinkMatrix::all_timely(n, 100, 800);
  const NetKSetReport ring = run_on_ring(links, config);
  EXPECT_GE(ring.ring_frags, ring.delivered_messages);
  expect_reports_equal(ring, run_on_oracle(links, config));
}

}  // namespace
}  // namespace sskel
