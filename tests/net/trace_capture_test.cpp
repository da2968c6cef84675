// Full-run capture on the network substrate (DESIGN.md §14).
//
// Three properties anchor the record/replay workflow:
//  1. NetRoundDriver and the event-queue oracle produce
//     *identical* captures — not just identical reports: same
//     broadcasts, same delivery fates in the same schedule order, same
//     closes. The driver earns this by scheduling one stand-in trace
//     event per on-time, tie or late message at its arrival instant,
//     mirroring the oracle's per-delivery events.
//  2. A net capture replays bit-exactly through the Simulator: the
//     derived graphs are a perfect deterministic adversary.
//  3. The capture round-trips through the framed codec.
#include <gtest/gtest.h>

#include <vector>

#include "kset/message.hpp"
#include "net/kset_net.hpp"
#include "oracles/event_queue_driver.hpp"
#include "rounds/graph_source.hpp"
#include "rounds/trace.hpp"

namespace sskel {
namespace {

struct CapturedRun {
  KSetRunReport report;
  RunCapture capture;
};

using RingDriver = NetRoundDriver<SkeletonMessage>;
using OracleDriver = oracles::EventQueueDriver<SkeletonMessage>;

template <typename Driver>
CapturedRun run_with_capture(const LinkMatrix& links,
                             const NetKSetConfig& config) {
  const ProcId n = links.n();
  Driver driver(config.net, links, make_kset_processes(n, config.run));
  TraceRecorder recorder(n, driver.trace_source(), config.net.seed,
                         config.net.round_duration);
  driver.set_trace_sink(&recorder, [](const SkeletonMessage& m,
                                      std::vector<std::uint8_t>& out) {
    encode_message(m, out);
  });
  recorder.attach(driver);
  CapturedRun out;
  out.report = run_kset_on_engine(driver, config.run);
  out.capture = recorder.finish(driver.trace());
  return out;
}

void expect_kset_reports_equal(const KSetRunReport& a, const KSetRunReport& b) {
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
}

/// A lossy, skewed network with real late arrivals: the hardest
/// schedule short of deadline ties.
NetKSetConfig flaky_config(ProcId n) {
  NetKSetConfig config;
  config.run.k = 2;
  config.run.max_rounds = 40;
  config.run.tail_rounds = 2;
  config.net.round_duration = 800;
  config.net.seed = 0x7EACE01;
  for (ProcId p = 0; p < n; ++p) {
    config.net.skews.push_back((static_cast<SimTime>(p) * 61) % 500);
  }
  return config;
}

LinkMatrix flaky_links(ProcId n) {
  Digraph stable(n);
  stable.add_self_loops();
  for (ProcId p = 0; p < n; ++p) stable.add_edge(p % 2, p);
  LinkMatrix links = LinkMatrix::all_flaky(n, 0.5);
  links.upgrade_to_timely(stable, 100, 600);
  return links;
}

TEST(TraceCaptureTest, PlanesProduceIdenticalCaptures) {
  const ProcId n = 7;
  const NetKSetConfig config = flaky_config(n);
  const LinkMatrix links = flaky_links(n);

  const CapturedRun ring = run_with_capture<RingDriver>(links, config);
  const CapturedRun eq = run_with_capture<OracleDriver>(links, config);

  // Identical except for the self-describing source tag.
  EXPECT_EQ(ring.capture.header.source, TraceSource::kNetRing);
  EXPECT_EQ(eq.capture.header.source, TraceSource::kNetEventQueue);
  RunCapture ring_rebased = ring.capture;
  ring_rebased.header.source = TraceSource::kNetEventQueue;
  EXPECT_EQ(ring_rebased.graphs, eq.capture.graphs);
  EXPECT_EQ(ring_rebased.stats, eq.capture.stats);
  EXPECT_EQ(ring_rebased.messages, eq.capture.messages);
  EXPECT_EQ(ring_rebased.deliveries, eq.capture.deliveries);
  EXPECT_EQ(ring_rebased.closes, eq.capture.closes);
  EXPECT_EQ(ring_rebased, eq.capture);

  // The scenario must actually exercise every fate but ties.
  int late = 0;
  int dropped = 0;
  int on_time = 0;
  for (const DeliveryRecord& d : ring.capture.deliveries) {
    late += d.kind == DeliveryKind::kLate;
    dropped += d.kind == DeliveryKind::kDropped;
    on_time += d.kind == DeliveryKind::kOnTime;
  }
  EXPECT_GT(late, 0);
  EXPECT_GT(dropped, 0);
  EXPECT_GT(on_time, 0);
  EXPECT_FALSE(ring.capture.messages.empty());
  EXPECT_FALSE(ring.capture.closes.empty());
}

TEST(TraceCaptureTest, DeadlineTieCapturesAgreeAcrossPlanes) {
  // delay == D lands every arrival exactly on the receiver's deadline:
  // the close/delivery tie is the one schedule point the driver
  // resolves analytically rather than through the event queue.
  const ProcId n = 4;
  NetKSetConfig config;
  config.run.k = 1;
  config.run.max_rounds = 30;
  config.net.round_duration = 1000;
  config.net.seed = 0x7EACE02;
  const LinkMatrix links = LinkMatrix::all_timely(n, 1000, 1000);

  const CapturedRun ring = run_with_capture<RingDriver>(links, config);
  const CapturedRun eq = run_with_capture<OracleDriver>(links, config);

  RunCapture ring_rebased = ring.capture;
  ring_rebased.header.source = TraceSource::kNetEventQueue;
  EXPECT_EQ(ring_rebased, eq.capture);

  int ties = 0;
  for (const DeliveryRecord& d : ring.capture.deliveries) {
    ties += d.kind == DeliveryKind::kTieDiscard;
  }
  EXPECT_GT(ties, 0);
}

TEST(TraceCaptureTest, NetCaptureReplaysBitExactOnSimulator) {
  // The reproduce-a-bug workflow across substrates: capture a network
  // run, feed the derived graphs back through the Simulator, and the
  // report comes out bit-identical. measure_bytes stays off — the net
  // substrate byte-accounts tie discards the derived graph cannot
  // represent — and the derived graphs always contain every node
  // (self-delivery), so the Simulator's full-universe invariant holds.
  const ProcId n = 7;
  NetKSetConfig config = flaky_config(n);
  config.run.measure_bytes = false;

  for (const CapturedRun& net :
       {run_with_capture<RingDriver>(flaky_links(n), config),
        run_with_capture<OracleDriver>(flaky_links(n), config)}) {
    ASSERT_FALSE(net.capture.graphs.empty());

    ScheduleSource replay(net.capture.graphs);
    const KSetRunReport replayed = run_kset(replay, config.run);
    expect_kset_reports_equal(replayed, net.report);
  }
}

TEST(TraceCaptureTest, NetCaptureRoundTripsThroughCodec) {
  const ProcId n = 5;
  const CapturedRun run =
      run_with_capture<RingDriver>(flaky_links(n), flaky_config(n));
  const std::vector<std::uint8_t> bytes = encode_trace(run.capture);
  DecodeResult<RunCapture> back = decode_trace(bytes);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value(), run.capture);
  EXPECT_EQ(encode_trace(back.value()), bytes);
}

}  // namespace
}  // namespace sskel
