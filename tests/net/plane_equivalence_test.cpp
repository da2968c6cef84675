// The bit-equality tripwire for the message plane (DESIGN.md §12):
// the same seeded run through NetRoundDriver and the event-queue
// oracle must produce identical KSetRunReports — same decisions, same
// derived skeletons, same message accounting, same simulated clock —
// under clean networks, lossy/flaky networks with late arrivals,
// deadline ties, and skews spanning the round alike. The lockstep
// cases at the end compare the message counters after every round
// and at every close, not only at the end of the run.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/kset_net.hpp"
#include "oracles/event_queue_driver.hpp"

namespace sskel {
namespace {

void expect_reports_equal(const NetKSetReport& driver,
                          const NetKSetReport& eq) {
  const KSetRunReport& a = driver.kset;
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

  EXPECT_EQ(driver.delivered_messages, eq.delivered_messages);
  EXPECT_EQ(driver.late_messages, eq.late_messages);
  EXPECT_EQ(driver.lost_messages, eq.lost_messages);
  EXPECT_EQ(driver.wall_clock, eq.wall_clock);
}

NetKSetReport run_on_driver(const LinkMatrix& links,
                          const NetKSetConfig& config) {
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

/// One network configuration: links plus the run/net config.
struct PlaneCase {
  LinkMatrix links;
  NetKSetConfig config;
};

PlaneCase flaky_lossy_case() {
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
  return {std::move(links), std::move(config)};
}

PlaneCase skewed_tie_case() {
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
  return {LinkMatrix::all_timely(n, 1000, 1000), std::move(config)};
}

/// Skews spread across the whole round (0..804 of D = 1000): each
/// round's sends and closes interleave with the next round's.
PlaneCase wide_skew_case() {
  const ProcId n = 8;
  NetKSetConfig config;
  config.run.k = 1;
  config.run.tail_rounds = 2;
  config.net.round_duration = 1000;
  config.net.seed = 0x5EED05;
  for (ProcId p = 0; p < n; ++p) {
    config.net.skews.push_back((static_cast<SimTime>(p) * 201) % 1000);
  }
  return {LinkMatrix::all_timely(n, 30, 300), std::move(config)};
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
  expect_reports_equal(run_on_driver(links, config),
                       run_on_oracle(links, config));
}

TEST(PlaneEquivalenceTest, FlakyLossyNetworkWithLateArrivals) {
  const auto [links, config] = flaky_lossy_case();
  const NetKSetReport driver = run_on_driver(links, config);
  const NetKSetReport eq = run_on_oracle(links, config);
  expect_reports_equal(driver, eq);
  // The scenario must actually exercise the late/lost paths, or this
  // tripwire silently loses its teeth.
  EXPECT_GT(driver.late_messages, 0);
  EXPECT_GT(driver.lost_messages, 0);
}

TEST(PlaneEquivalenceTest, DeadlineTiesResolveIdentically) {
  // Fixed-delay links with delay == D land every arrival exactly on
  // the receiver's deadline — the one (time, seq) tie the driver
  // must reproduce analytically (close_precedes_delivery_at_tie).
  const ProcId n = 4;
  NetKSetConfig config;
  config.run.k = 1;
  config.run.max_rounds = 30;
  config.net.round_duration = 1000;
  config.net.seed = 0x5EED03;
  const LinkMatrix links = LinkMatrix::all_timely(n, 1000, 1000);
  const NetKSetReport driver = run_on_driver(links, config);
  const NetKSetReport eq = run_on_oracle(links, config);
  expect_reports_equal(driver, eq);
}

TEST(PlaneEquivalenceTest, TiedDeadlinesWithSkewedClocks) {
  const auto [links, config] = skewed_tie_case();
  expect_reports_equal(run_on_driver(links, config),
                       run_on_oracle(links, config));
}

TEST(PlaneEquivalenceTest, SkewsSpanningTheRound) {
  const auto [links, config] = wide_skew_case();
  expect_reports_equal(run_on_driver(links, config),
                       run_on_oracle(links, config));
}

TEST(PlaneEquivalenceTest, FlakyNetworkPastOneWord) {
  // n = 70: each derived row spans two words, so the driver stages
  // and lands the rows across a 64-process block boundary.
  const ProcId n = 70;
  NetKSetConfig config;
  config.run.k = 3;
  config.run.max_rounds = 30;
  config.net.round_duration = 1000;
  config.net.seed = 0x5EED07;
  for (ProcId p = 0; p < n; ++p) {
    config.net.skews.push_back((static_cast<SimTime>(p) * 37) % 400);
  }
  Digraph stable(n);
  stable.add_self_loops();
  for (ProcId p = 0; p < n; ++p) stable.add_edge(p % 3, p);
  LinkMatrix links = LinkMatrix::all_flaky(n, 0.35);
  links.upgrade_to_timely(stable, 100, 700);
  const NetKSetReport driver = run_on_driver(links, config);
  expect_reports_equal(driver, run_on_oracle(links, config));
  EXPECT_GT(driver.late_messages, 0);
}

TEST(PlaneEquivalenceTest, CleanTimelyNetworkWithoutSkews) {
  const ProcId n = 5;
  NetKSetConfig config;
  config.run.k = 1;
  config.net.seed = 0x5EED06;
  const LinkMatrix links = LinkMatrix::all_timely(n, 100, 800);
  expect_reports_equal(run_on_driver(links, config),
                       run_on_oracle(links, config));
}

// --- Lockstep: the counters after every round and at every close -----------

/// Late and lost counts and the clock of one engine at one close.
/// delivered_messages() is left out: it is defined at step() cuts,
/// where its deadline-tie rule can name the round just completed.
struct CloseCounts {
  std::int64_t late = 0;
  std::int64_t lost = 0;
  SimTime now = 0;
  bool operator==(const CloseCounts&) const = default;
};

/// What a probe logs: one entry per close, in execution order.
struct CloseLog {
  std::function<CloseCounts()> read;  // bound once the engine exists
  std::vector<CloseCounts> at_close;
};

/// Algorithm 1 with a probe on its transition. Inside a round the last
/// executed close is the probing process's own, so the log reads the
/// late count at instants that step() never returns at: a close that
/// a late arrival lands on with a larger seq is one of them.
class ProbedProcess final : public Algorithm<SkeletonMessage> {
 public:
  ProbedProcess(std::unique_ptr<Algorithm<SkeletonMessage>> inner,
                CloseLog* log)
      : Algorithm(inner->n(), inner->id()),
        inner_(std::move(inner)),
        log_(log) {}

  SkeletonMessage send(Round r) override { return inner_->send(r); }
  void send_into(Round r, SkeletonMessage& out) override {
    inner_->send_into(r, out);
  }
  void transition(Round r, const Inbox<SkeletonMessage>& inbox) override {
    log_->at_close.push_back(log_->read());
    inner_->transition(r, inbox);
  }

 private:
  std::unique_ptr<Algorithm<SkeletonMessage>> inner_;
  CloseLog* log_;
};

std::vector<std::unique_ptr<Algorithm<SkeletonMessage>>> probed_processes(
    ProcId n, const KSetRunConfig& run, CloseLog* log) {
  auto procs = make_kset_processes(n, run);
  for (auto& proc : procs) {
    proc = std::make_unique<ProbedProcess>(std::move(proc), log);
  }
  return procs;
}

template <typename Engine>
CloseCounts close_counts(const Engine& engine) {
  return {engine.late_messages(), engine.lost_messages(), engine.now()};
}

/// Steps the driver and the oracle in lockstep for `rounds`
/// rounds: delivered, late and lost counts and the clock must agree
/// after every step(), and the late and lost counts and the clock at
/// every close.
void expect_counts_equal_every_round(const PlaneCase& c, Round rounds) {
  const ProcId n = c.links.n();
  CloseLog driver_log;
  CloseLog eq_log;
  NetRoundDriver<SkeletonMessage> driver(
      c.config.net, c.links, probed_processes(n, c.config.run, &driver_log));
  oracles::EventQueueDriver<SkeletonMessage> eq(
      c.config.net, c.links, probed_processes(n, c.config.run, &eq_log));
  driver_log.read = [&driver] { return close_counts(driver); };
  eq_log.read = [&eq] { return close_counts(eq); };

  for (Round r = 1; r <= rounds; ++r) {
    driver.step();
    eq.step();
    ASSERT_EQ(driver.delivered_messages(), eq.delivered_messages())
        << "round " << r;
    ASSERT_EQ(driver.late_messages(), eq.late_messages()) << "round " << r;
    ASSERT_EQ(driver.lost_messages(), eq.lost_messages()) << "round " << r;
    ASSERT_EQ(driver.now(), eq.now()) << "round " << r;
  }
  ASSERT_EQ(driver_log.at_close.size(), eq_log.at_close.size());
  for (std::size_t i = 0; i < driver_log.at_close.size(); ++i) {
    const CloseCounts& a = driver_log.at_close[i];
    const CloseCounts& b = eq_log.at_close[i];
    ASSERT_EQ(a.late, b.late) << "close " << i << " at t=" << b.now;
    ASSERT_EQ(a.lost, b.lost) << "close " << i << " at t=" << b.now;
    ASSERT_EQ(a.now, b.now) << "close " << i;
  }
}

TEST(PlaneEquivalenceTest, LockstepCountsFlakyLossy) {
  expect_counts_equal_every_round(flaky_lossy_case(), 40);
}

TEST(PlaneEquivalenceTest, LockstepCountsSkewedTies) {
  expect_counts_equal_every_round(skewed_tie_case(), 30);
}

TEST(PlaneEquivalenceTest, LockstepCountsSkewsSpanningTheRound) {
  expect_counts_equal_every_round(wide_skew_case(), 30);
}

/// Late arrivals landing exactly on close instants. Skews 0, 500, 200,
/// 800 give the close order 0, 2, 1, 3 within a round; every link has
/// one fixed delay. Senders 0, 2 and 3 aim at process 1's close (delay
/// D + 500 - skew), so each of their round-r messages to a process
/// with a smaller skew than 1's arrives late exactly when 1 closes
/// round r. 0 and 2 start round r before 1 does, so their arrivals'
/// seqs precede the close's; 3 starts after 1, so its arrivals' seqs
/// follow it and must not count at that close. Sender 1 aims at 3's
/// close, the cut that completes the round.
PlaneCase late_on_close_case() {
  const ProcId n = 4;
  const SimTime d = 1000;
  NetKSetConfig config;
  config.run.k = 1;
  config.net.round_duration = d;
  config.net.seed = 0x5EED07;
  config.net.skews = {0, 500, 200, 800};
  LinkMatrix links(n);
  for (ProcId p = 0; p < n; ++p) {
    const ProcId target = p == 1 ? 3 : 1;
    LinkSpec spec;
    spec.kind = LinkKind::kTimely;
    spec.min_delay = d + config.net.skews[static_cast<std::size_t>(target)] -
                     config.net.skews[static_cast<std::size_t>(p)];
    spec.max_delay = spec.min_delay;
    for (ProcId q = 0; q < n; ++q) {
      if (q != p) links.set(p, q, spec);
    }
  }
  return {std::move(links), std::move(config)};
}

/// The schedule of a traced oracle run, reduced to closes and late
/// arrivals in execution order (= (time, seq) order).
class LateCloseOrder final : public NetTraceSink {
 public:
  void on_broadcast(Round, ProcId, const std::vector<std::uint8_t>&) override {
  }
  void on_delivery(DeliveryKind kind, Round, ProcId, ProcId,
                   SimTime time) override {
    if (kind == DeliveryKind::kLate) events_.push_back({time, false});
  }
  void on_close(Round, ProcId, SimTime time) override {
    events_.push_back({time, true});
  }

  /// Late arrivals that share their instant with a close and run
  /// before it (`after_close` false) or after it (true).
  [[nodiscard]] int lates_on_close(bool after_close) const {
    int count = 0;
    for (std::size_t i = 0; i < events_.size(); ++i) {
      if (events_[i].close) continue;
      const auto same_instant_close = [&](const Event& e) {
        return e.close && e.time == events_[i].time;
      };
      const auto split = events_.begin() + static_cast<std::ptrdiff_t>(i);
      if (after_close ? std::any_of(events_.begin(), split, same_instant_close)
                      : std::any_of(split, events_.end(), same_instant_close)) {
        ++count;
      }
    }
    return count;
  }

 private:
  struct Event {
    SimTime time;
    bool close;
  };
  std::vector<Event> events_;
};

TEST(PlaneEquivalenceTest, LockstepCountsLateArrivalsOnCloseInstants) {
  const PlaneCase c = late_on_close_case();
  // The case must put late arrivals on close instants on both sides of
  // the close's seq, or the seq tie-break goes unchecked.
  LateCloseOrder order;
  oracles::EventQueueDriver<SkeletonMessage> traced(
      c.config.net, c.links, make_kset_processes(c.links.n(), c.config.run));
  traced.set_trace_sink(&order);
  traced.run(10);
  EXPECT_GT(order.lates_on_close(/*after_close=*/false), 0);
  EXPECT_GT(order.lates_on_close(/*after_close=*/true), 0);

  expect_counts_equal_every_round(c, 30);
}

/// On-time arrivals of round r + 1 landing exactly on the cut that
/// completes round r. Skews 0, 400, 0 give the close order 0, 2, 1, so
/// process 1's close completes every round. Senders 0 and 2 have one
/// fixed delay of 400: their round-(r+1) messages, sent when they
/// close round r, arrive exactly at 1's round-r close, the instant
/// step() returns at. The oracle scheduled those deliveries after
/// that close, so they must not count there. Sender 1's delay of 100
/// lands nothing on a close.
PlaneCase next_round_on_cut_case() {
  const ProcId n = 3;
  NetKSetConfig config;
  config.run.k = 1;
  config.net.round_duration = 1000;
  config.net.seed = 0x5EED08;
  config.net.skews = {0, 400, 0};
  LinkMatrix links(n);
  for (ProcId p = 0; p < n; ++p) {
    LinkSpec spec;
    spec.kind = LinkKind::kTimely;
    spec.min_delay = p == 1 ? 100 : 400;
    spec.max_delay = spec.min_delay;
    for (ProcId q = 0; q < n; ++q) {
      if (q != p) links.set(p, q, spec);
    }
  }
  return {std::move(links), std::move(config)};
}

/// Counts, in a traced oracle run, the on-time deliveries of round
/// r + 1 that run at the instant of the close completing round r.
/// Rounds complete in order, so every n-th close is a cut.
class NextRoundArrivalsOnCuts final : public NetTraceSink {
 public:
  explicit NextRoundArrivalsOnCuts(ProcId n) : n_(n) {}

  void on_broadcast(Round, ProcId, const std::vector<std::uint8_t>&) override {
  }
  void on_delivery(DeliveryKind kind, Round r, ProcId, ProcId,
                   SimTime time) override {
    if (kind == DeliveryKind::kOnTime && r == completed_ + 1 &&
        time == cut_time_) {
      ++count_;
    }
  }
  void on_close(Round r, ProcId, SimTime time) override {
    if (++closes_ % n_ != 0) return;
    completed_ = r;
    cut_time_ = time;
  }

  [[nodiscard]] int count() const { return count_; }

 private:
  ProcId n_;
  std::int64_t closes_ = 0;
  Round completed_ = 0;
  SimTime cut_time_ = -1;
  int count_ = 0;
};

TEST(PlaneEquivalenceTest, LockstepCountsNextRoundArrivalsOnTheCut) {
  const PlaneCase c = next_round_on_cut_case();
  // The case must put next-round arrivals on the cut, or the
  // accessor's tie rule and the settlement at round completion go
  // unchecked.
  NextRoundArrivalsOnCuts probe(c.links.n());
  oracles::EventQueueDriver<SkeletonMessage> traced(
      c.config.net, c.links, make_kset_processes(c.links.n(), c.config.run));
  traced.set_trace_sink(&probe);
  traced.run(10);
  EXPECT_GT(probe.count(), 0);

  expect_counts_equal_every_round(c, 30);
}

}  // namespace
}  // namespace sskel
