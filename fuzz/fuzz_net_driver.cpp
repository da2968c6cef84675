// Fuzz target: NetRoundDriver against the event-queue oracle.
//
// The fuzz input picks a small universe, skews, link matrix (timely /
// flaky / lossy mix, deadline-tie delays included) and ring depth; the
// same k-set run then executes on the ring-plane driver and on the
// event-queue oracle (tests/oracles/event_queue_driver.hpp). Reports
// must be bit-equal (DESIGN.md §12) and the full captures —
// broadcasts, delivery fates, closes — identical. The driver runs each
// input twice, with a capture sink and without one: the untraced run
// schedules no capture events and draws late arrivals' seqs from
// take_seq(), and must still give the same report, message counters
// and clock. Tiny ring depths are part of the search space
// deliberately: backpressure and frag reassembly must not change
// observable behaviour.
#include <cstdint>
#include <vector>

#include "fuzz_input.hpp"
#include "kset/message.hpp"
#include "net/kset_net.hpp"
#include "oracles/event_queue_driver.hpp"
#include "rounds/trace.hpp"
#include "util/assert.hpp"

using namespace sskel;
using sskel::fuzz::FuzzInput;

namespace {

struct PlaneRun {
  KSetRunReport report;
  RunCapture capture;
  std::int64_t delivered = 0;
  std::int64_t late = 0;
  std::int64_t lost = 0;
  SimTime wall_clock = 0;
};

/// One run of `Driver`; with `traced` a TraceRecorder captures it.
template <typename Driver>
PlaneRun run_plane(const LinkMatrix& links, const NetKSetConfig& config,
                   bool traced) {
  const ProcId n = links.n();
  Driver driver(config.net, links, make_kset_processes(n, config.run));
  TraceRecorder recorder(n, driver.trace_source(), config.net.seed,
                         config.net.round_duration);
  if (traced) {
    driver.set_trace_sink(&recorder, [](const SkeletonMessage& m,
                                        std::vector<std::uint8_t>& out) {
      encode_message(m, out);
    });
    recorder.attach(driver);
  }
  PlaneRun out;
  out.report = run_kset_on_engine(driver, config.run);
  if (traced) out.capture = recorder.finish(driver.trace());
  out.delivered = driver.delivered_messages();
  out.late = driver.late_messages();
  out.lost = driver.lost_messages();
  out.wall_clock = driver.now();
  return out;
}

/// The run-level fields every plane and trace mode must agree on.
void require_same_run(const PlaneRun& a, const PlaneRun& b) {
  SSKEL_REQUIRE(a.report.outcomes.size() == b.report.outcomes.size());
  for (std::size_t p = 0; p < a.report.outcomes.size(); ++p) {
    SSKEL_REQUIRE(a.report.outcomes[p].decided ==
                  b.report.outcomes[p].decided);
    SSKEL_REQUIRE(a.report.outcomes[p].decision ==
                  b.report.outcomes[p].decision);
    SSKEL_REQUIRE(a.report.outcomes[p].decision_round ==
                  b.report.outcomes[p].decision_round);
  }
  SSKEL_REQUIRE(a.report.rounds_executed == b.report.rounds_executed);
  SSKEL_REQUIRE(a.report.final_skeleton == b.report.final_skeleton);
  SSKEL_REQUIRE(a.report.total_messages == b.report.total_messages);
  SSKEL_REQUIRE(a.delivered == b.delivered);
  SSKEL_REQUIRE(a.late == b.late);
  SSKEL_REQUIRE(a.lost == b.lost);
  SSKEL_REQUIRE(a.wall_clock == b.wall_clock);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  FuzzInput input(data, size);
  const ProcId n = static_cast<ProcId>(input.in_range(2, 6));
  const SimTime duration = 200 * static_cast<SimTime>(input.in_range(1, 5));

  NetKSetConfig config;
  config.run.k = static_cast<int>(input.in_range(1, 3));
  config.run.max_rounds = static_cast<Round>(input.in_range(4, 24));
  config.run.tail_rounds = static_cast<Round>(input.in_range(0, 2));
  config.net.round_duration = duration;
  config.net.seed = input.u64();
  for (ProcId p = 0; p < n; ++p) {
    // Skews must stay below D.
    config.net.skews.push_back(static_cast<SimTime>(
        input.in_range(0, static_cast<std::uint32_t>(duration) - 1)));
  }

  // Start from lossy chaos, then upgrade a fuzz-chosen stable
  // subgraph to timely links (self-loops always present). Delay
  // bounds may hit `duration` exactly — deadline ties are the point.
  LinkMatrix links = LinkMatrix::all_flaky(n, 0.25 * input.in_range(0, 3));
  Digraph stable(n);
  stable.add_self_loops();
  const std::uint32_t extra = input.in_range(0, 12);
  for (std::uint32_t e = 0; e < extra; ++e) {
    stable.add_edge(static_cast<ProcId>(
                        input.in_range(0, static_cast<std::uint32_t>(n) - 1)),
                    static_cast<ProcId>(
                        input.in_range(0, static_cast<std::uint32_t>(n) - 1)));
  }
  const SimTime lo = static_cast<SimTime>(
      input.in_range(1, static_cast<std::uint32_t>(duration)));
  const SimTime hi = lo + static_cast<SimTime>(input.in_range(
                              0, static_cast<std::uint32_t>(duration - lo)));
  links.upgrade_to_timely(stable, lo, hi);

  config.net.ring_depth = input.in_range(0, 3);
  using Ring = NetRoundDriver<SkeletonMessage>;
  const PlaneRun ring = run_plane<Ring>(links, config, /*traced=*/true);
  const PlaneRun untraced = run_plane<Ring>(links, config, /*traced=*/false);
  const PlaneRun eq = run_plane<oracles::EventQueueDriver<SkeletonMessage>>(
      links, config, /*traced=*/true);

  require_same_run(ring, eq);
  require_same_run(untraced, eq);
  SSKEL_REQUIRE(untraced.report == ring.report);

  RunCapture rebased = ring.capture;
  rebased.header.source = TraceSource::kNetEventQueue;
  SSKEL_REQUIRE(rebased == eq.capture);
  return 0;
}
