// Differential fuzz target: record on the network substrate, replay on
// the Simulator, demand bit-equal reports.
//
// This is the paper's central claim turned into an oracle: a run *is*
// its communication-graph sequence, so the derived graphs captured
// from a network run — whatever loss, lateness, skew and deadline-tie
// schedule produced them — must drive the Simulator to the identical
// KSetRunReport. The capture also has to survive its own codec on the
// way (encode → decode → ScheduleSource), so the fuzzer exercises the
// full record/replay pipeline end to end. The recording side is
// fuzz-chosen: NetRoundDriver or the event-queue oracle.
//
// The same capture then replays through the dense line-by-line
// Algorithm 1 (tests/oracles/dense_kset.hpp) beside the production
// O(n)-state process: every process's G_p, encoded message, PT,
// estimate and decision must agree after every round, and the
// outcomes must equal the network run's. This replay consumes no
// input bytes, so existing corpora keep their meaning.
#include <cstdint>
#include <vector>

#include "fuzz_input.hpp"
#include "kset/message.hpp"
#include "net/kset_net.hpp"
#include "oracles/dense_kset.hpp"
#include "oracles/event_queue_driver.hpp"
#include "rounds/graph_source.hpp"
#include "rounds/simulator.hpp"
#include "rounds/trace.hpp"
#include "util/assert.hpp"

using namespace sskel;
using sskel::fuzz::FuzzInput;
using sskel::fuzz::FuzzSeed;

namespace {

struct NetRun {
  KSetRunReport report;
  RunCapture capture;
};

template <typename Driver>
NetRun record_net_run(const LinkMatrix& links, const NetKSetConfig& config) {
  const ProcId n = links.n();
  Driver driver(config.net, links, make_kset_processes(n, config.run));
  TraceRecorder recorder(n, driver.trace_source(), config.net.seed,
                         config.net.round_duration);
  driver.set_trace_sink(&recorder, [](const SkeletonMessage& m,
                                      std::vector<std::uint8_t>& out) {
    encode_message(m, out);
  });
  recorder.attach(driver);
  NetRun out;
  out.report = run_kset_on_engine(driver, config.run);
  out.capture = recorder.finish(driver.trace());
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  FuzzInput input(data, size);
  const ProcId n = static_cast<ProcId>(input.in_range(2, 7));
  const SimTime duration = 250 * static_cast<SimTime>(input.in_range(1, 4));

  NetKSetConfig config;
  config.run.k = static_cast<int>(input.in_range(1, 3));
  config.run.max_rounds = static_cast<Round>(input.in_range(4, 24));
  config.run.tail_rounds = static_cast<Round>(input.in_range(0, 2));
  // Byte accounting differs legitimately on tie discards (the derived
  // graph cannot represent a counted-but-dead deposit), so the
  // differential contract is stated on the measured-bytes-off report.
  config.run.measure_bytes = false;
  config.net.round_duration = duration;
  config.net.seed = input.u64();
  for (ProcId p = 0; p < n; ++p) {
    config.net.skews.push_back(static_cast<SimTime>(
        input.in_range(0, static_cast<std::uint32_t>(duration) - 1)));
  }

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

  const bool on_oracle = input.boolean();

  const NetRun recorded =
      on_oracle
          ? record_net_run<oracles::EventQueueDriver<SkeletonMessage>>(links,
                                                                       config)
          : record_net_run<NetRoundDriver<SkeletonMessage>>(links, config);
  const KSetRunReport& net = recorded.report;
  const RunCapture& capture = recorded.capture;
  if (capture.graphs.empty()) return 0;  // max_rounds 0-round degenerate

  // Replay through the codec, not the in-memory capture: the bytes on
  // disk are what a bug report actually carries.
  DecodeResult<RunCapture> decoded = decode_trace(encode_trace(capture));
  SSKEL_REQUIRE(decoded.ok());
  SSKEL_REQUIRE(decoded.value() == capture);

  ScheduleSource replay(decoded.value().graphs);
  const KSetRunReport sim = run_kset(replay, config.run);

  SSKEL_REQUIRE(sim.n == net.n);
  SSKEL_REQUIRE(sim.outcomes.size() == net.outcomes.size());
  for (std::size_t p = 0; p < sim.outcomes.size(); ++p) {
    SSKEL_REQUIRE(sim.outcomes[p].proposal == net.outcomes[p].proposal);
    SSKEL_REQUIRE(sim.outcomes[p].decided == net.outcomes[p].decided);
    SSKEL_REQUIRE(sim.outcomes[p].decision == net.outcomes[p].decision);
    SSKEL_REQUIRE(sim.outcomes[p].decision_round ==
                  net.outcomes[p].decision_round);
  }
  SSKEL_REQUIRE(sim.paths == net.paths);
  SSKEL_REQUIRE(sim.all_decided == net.all_decided);
  SSKEL_REQUIRE(sim.rounds_executed == net.rounds_executed);
  SSKEL_REQUIRE(sim.last_decision_round == net.last_decision_round);
  SSKEL_REQUIRE(sim.distinct_values == net.distinct_values);
  SSKEL_REQUIRE(sim.final_skeleton == net.final_skeleton);
  SSKEL_REQUIRE(sim.skeleton_last_change == net.skeleton_last_change);
  SSKEL_REQUIRE(sim.root_components_final == net.root_components_final);
  SSKEL_REQUIRE(sim.total_messages == net.total_messages);
  SSKEL_REQUIRE(sim.lemma_violations == net.lemma_violations);

  // Compact vs dense, round by round, on the recorded graphs.
  ScheduleSource compact_source(decoded.value().graphs);
  ScheduleSource dense_source(decoded.value().graphs);
  Simulator<SkeletonMessage> compact(compact_source,
                                     make_kset_processes(n, config.run));
  Simulator<oracles::DenseMessage> dense(
      dense_source, oracles::make_dense_processes(n, config.run));
  const auto rounds = static_cast<Round>(capture.graphs.size());
  const oracles::LockstepResult lockstep =
      oracles::run_lockstep(compact, dense, rounds);
  SSKEL_REQUIRE(lockstep.mismatch.empty());
  SSKEL_REQUIRE(lockstep.rounds == rounds);
  for (ProcId p = 0; p < n; ++p) {
    const auto& v =
        dynamic_cast<const SkeletonKSetProcess&>(compact.process(p));
    const Outcome& o = net.outcomes[static_cast<std::size_t>(p)];
    SSKEL_REQUIRE(v.decided() == o.decided);
    SSKEL_REQUIRE(!v.decided() || (v.decision() == o.decision &&
                                   v.decision_round() == o.decision_round));
    SSKEL_REQUIRE(v.decision_path() == net.paths[static_cast<std::size_t>(p)]);
  }
  return 0;
}

/// Seeds that reach late arrivals: the largest universe, 24 rounds,
/// skewed clocks, flaky links at 0.5 and 0.75, and timely links whose
/// delays straddle the round deadline, recorded on either plane.
/// Written in the reads' order.
extern "C" void sskel_fuzz_seed_corpus(
    std::vector<std::vector<std::uint8_t>>* out) {
  struct Shape {
    std::uint32_t duration_step;  // D = 250 * step
    std::uint32_t flaky_quarters;
    std::uint32_t lo_below_d;  // timely delays in [D - lo_below_d, D]
    std::uint64_t seed;
    bool on_oracle;
  };
  const Shape shapes[] = {{4, 2, 40, 0xD1FF01, false},
                          {4, 3, 0, 0xD1FF02, true},
                          {2, 3, 100, 0xD1FF03, false},
                          {4, 2, 300, 0xD1FF04, true}};
  constexpr std::uint32_t kN = 7;
  for (const Shape& shape : shapes) {
    const std::uint32_t d = 250 * shape.duration_step;
    FuzzSeed seed;
    seed.in_range(2, 7, kN)
        .in_range(1, 4, shape.duration_step)
        .in_range(1, 3, 2)     // k
        .in_range(4, 24, 24)   // max_rounds
        .in_range(0, 2, 2)     // tail_rounds
        .u64(shape.seed);
    for (std::uint32_t p = 0; p < kN; ++p) {
      seed.in_range(0, d - 1, (p * 337 + 113) % d);  // nonzero skews
    }
    seed.in_range(0, 3, shape.flaky_quarters).in_range(0, 12, 12);
    for (std::uint32_t e = 0; e < 12; ++e) {  // a ring, then chords
      const std::uint32_t from = e % kN;
      const std::uint32_t hop = e < kN ? 1 : 3;
      seed.in_range(0, kN - 1, from).in_range(0, kN - 1, (from + hop) % kN);
    }
    const std::uint32_t lo = d - shape.lo_below_d;
    seed.in_range(1, d, lo).in_range(0, d - lo, d - lo);
    seed.boolean(shape.on_oracle);
    out->push_back(seed.bytes());
  }
}
