// E11 + E14 — the network substrate, measured from both faces.
//
// E11 (tables 1): the round abstraction over a real (simulated)
// network — how the synchronizer's timeout D trades skeleton density
// against liveness. Fixed physical network (k timely hubs with delays
// in [100, 700]us, flaky remainder, 200us max clock skew), swept round
// duration D:
//
//   * D too small (< max timely delay + skew): even "timely" links
//     miss deadlines, the hub cover dissolves, the skeleton shatters
//     and more values survive (Psrcs(k) may fail on the derived run).
//   * D comfortable: the hub cover holds, Psrcs(k) holds on the
//     derived skeleton, <= k values; larger D wastes wall-clock time
//     per round but changes nothing structurally.
//
// E14 (table 2): sustained throughput of the message plane
// (DESIGN.md §12). A trivial relay algorithm (min-fold over int64
// payloads) makes the transition free, so the measurement isolates the
// delivery hot path:
//
//   * plane throughput — one seeded NetRoundDriver run (analytic
//     timeliness, on-time deposits at send time) per link mix.
//     All-timely links measure the on-time path: gate >= 1M
//     process-rounds/sec. The perfbench `network` topology (a timely
//     hub cover over flaky links, on time with probability 0.35) adds
//     the late and lost paths. The bench-regression diff of
//     process_rounds_per_sec against the committed BENCH_network.json
//     gates both rows against their baselines.
//
// The plane's equivalence to the event-queue specification is pinned
// by the tests (tests/net/plane_equivalence_test.cpp), not here.
//
// SSKEL_SMOKE=1 shrinks the sweeps for CI; SSKEL_BENCH_JSON overrides
// the BENCH_network.json path. Rate fields end in _per_sec so
// tools/bench_diff.py treats them as higher-is-better.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "adversary/random_psrcs.hpp"
#include "graph/scc.hpp"
#include "mc/mc_plane.hpp"
#include "predicates/psrcs.hpp"
#include "util/bench_json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace sskel;
using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The relay algorithm: broadcast a mixed counter, fold the inbox min
/// into a running digest. Cheap enough that the driver's delivery path
/// dominates, stateful enough that every message depends on what the
/// process received before.
class RelayProcess final : public Algorithm<std::int64_t> {
 public:
  RelayProcess(ProcId n, ProcId id) : Algorithm<std::int64_t>(n, id) {}

  std::int64_t send(Round r) override {
    return digest_ * 31 + static_cast<std::int64_t>(id()) * 1009 + r;
  }

  void transition(Round r, const Inbox<std::int64_t>& inbox) override {
    std::int64_t lowest = send(r);  // own message, always delivered
    inbox.for_each([&](ProcId, const std::int64_t& msg) {
      lowest = std::min(lowest, msg);
    });
    digest_ = digest_ * 131 + lowest;
  }


 private:
  std::int64_t digest_ = 0;
};

struct ThroughputRun {
  double elapsed_s = 0.0;
  double process_rounds_per_sec = 0.0;
  std::int64_t delivered = 0;
  std::int64_t late = 0;
  std::int64_t lost = 0;
  std::int64_t credit_stalls = 0;
};

/// One sustained run: n relay processes through `rounds` rounds.
ThroughputRun run_throughput(const LinkMatrix& links, Round rounds,
                             std::uint64_t seed) {
  const ProcId n = links.n();
  NetConfig net;
  net.round_duration = 1000;
  net.seed = seed;
  for (ProcId p = 0; p < n; ++p) {
    net.skews.push_back((static_cast<SimTime>(p) * 37) % 200);
  }
  std::vector<std::unique_ptr<Algorithm<std::int64_t>>> procs;
  procs.reserve(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) {
    procs.push_back(std::make_unique<RelayProcess>(n, p));
  }
  NetRoundDriver<std::int64_t> driver(net, links, std::move(procs));

  const Clock::time_point start = Clock::now();
  driver.run_rounds(rounds);
  ThroughputRun run;
  run.elapsed_s = seconds_since(start);
  run.process_rounds_per_sec =
      static_cast<double>(n) * static_cast<double>(rounds) /
      (run.elapsed_s > 0.0 ? run.elapsed_s : 1e-9);
  run.delivered = driver.delivered_messages();
  run.late = driver.late_messages();
  run.lost = driver.lost_messages();
  run.credit_stalls = driver.credit_stalls();
  return run;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("SSKEL_SMOKE") != nullptr;
  bool all_ok = true;
  BenchJson json("network");

  std::cout << "========================================================\n"
            << " E11: synchronizer timeout vs derived-skeleton quality\n"
            << " (n=9, k=3 timely hubs: delays 100-700us, skew <= 200us)\n"
            << "========================================================\n\n";

  {
    const ProcId n = 9;
    const int k = 3;
    const int trials = smoke ? 6 : 15;

    Digraph stable(n);
    stable.add_self_loops();
    for (ProcId p = 0; p < n; ++p) {
      stable.add_edge(p % static_cast<ProcId>(k), p);
    }
    LinkMatrix links = LinkMatrix::all_flaky(n, 0.35);
    links.upgrade_to_timely(stable, 100, 700);

    KSetRunConfig run;
    run.k = k;

    Table table("round duration sweep (" + std::to_string(trials) +
                    " trials per row)",
                {"D (us)", "Psrcs(3) holds", "mean skel edges", "mean roots",
                 "values max", ">k viol", "mean dec. round",
                 "mean sim time (ms)", "late msgs/run"});
    for (SimTime d : {400, 550, 650, 700, 950, 1500, 4000}) {
      NetConfig net;
      net.round_duration = d;
      for (ProcId p = 0; p < n; ++p) {
        net.skews.push_back((static_cast<SimTime>(p) * 37) % 201);
      }
      const NetScenario scenario(links, net);

      int psrcs_holds = 0, over_k = 0, values_max = 0;
      Accumulator edges, roots, dec_round, sim_ms, late;
      McTilePlane plane(scenario);
      const McSummary summary = plane.run(
          0xE11, trials, run, [&](std::size_t, const ScenarioTrial& trial) {
            const KSetRunReport& r = trial.kset;
            if (!r.all_decided) return;
            if (check_psrcs_exact(r.final_skeleton, k).holds) ++psrcs_holds;
            if (r.distinct_values > k) ++over_k;
            values_max = std::max(values_max, r.distinct_values);
            edges.add(static_cast<double>(r.final_skeleton.edge_count()));
            roots.add(
                static_cast<double>(root_components(r.final_skeleton).size()));
            dec_round.add(r.last_decision_round);
            sim_ms.add(static_cast<double>(trial.wall_clock) / 1000.0);
            late.add(static_cast<double>(trial.late_messages));
          });
      SSKEL_ASSERT(summary.net_backed);
      table.add_row({cell(static_cast<std::int64_t>(d)),
                     cell(psrcs_holds) + "/" + cell(trials),
                     cell(edges.mean(), 1), cell(roots.mean(), 2),
                     cell(values_max), cell(over_k), cell(dec_round.mean(), 1),
                     cell(sim_ms.mean(), 1), cell(late.mean(), 0)});
      json.add("timeout_sweep")
          .set("round_duration_us", static_cast<std::int64_t>(d))
          .set("trials", trials)
          .set("psrcs_holds", psrcs_holds)
          .set("values_max", values_max)
          .set("mean_late_messages", late.mean())
          .set("credit_stall_total", summary.credit_stalls);
    }
    table.print(std::cout);
    std::cout
        << "Reading: a hub link with delay d is on time iff\n"
           "d <= D + skew(member) - skew(hub); with this skew assignment\n"
           "the worst adverse pair differs by 21us, so the hub cover needs\n"
           "D >= ~680us. Below that (D = 400us) hub links miss deadlines,\n"
           "the derived skeleton shatters into singleton roots, Psrcs(3)\n"
           "fails and more than 3 values appear. At D >= 700us Psrcs(3)\n"
           "holds in every trial and the k ceiling is honored.\n\n";
  }

  std::cout << "========================================================\n"
            << " E14: message-plane throughput (ring plane)\n"
            << "========================================================\n\n";

  // The all-timely configuration: enough processes that per-delivery
  // cost dominates per-round cost (n-1 deliveries per close), short
  // real delays so virtually everything is on time.
  const ProcId plane_n = 24;
  const Round plane_rounds = smoke ? 300 : 2000;
  const LinkMatrix timely_links = LinkMatrix::all_timely(plane_n, 50, 400);
  // perfbench's `network` links: the stable skeleton of one fixed
  // random-psrcs draw (seed "LINK", 3 root components of at most 3
  // hubs, as in perfbench/src/plane_workloads.cpp) upgraded to timely
  // links over an all-flaky mesh. Roughly a third of the
  // messages are late and a third lost, so this row runs the late and
  // lost paths the all-timely row never takes.
  const LinkMatrix hub_links = [&] {
    RandomPsrcsParams hubs;
    hubs.n = plane_n;
    hubs.k = 3;
    hubs.root_components = 3;
    hubs.max_core_size = 3;
    const RandomPsrcsSource source(0x4c494e4b, hubs);
    LinkMatrix links = LinkMatrix::all_flaky(plane_n, 0.35);
    links.upgrade_to_timely(source.stable_skeleton(), 100, 700);
    return links;
  }();

  {
    Table table("plane throughput (n=24, ring plane, " +
                    std::to_string(plane_rounds) + " rounds)",
                {"links", "proc-rounds/s", "delivered", "late", "lost",
                 "credit stalls", "elapsed (ms)"});
    const auto add_row = [&](const std::string& links,
                             const ThroughputRun& run) {
      table.add_row({links, cell(run.process_rounds_per_sec, 0),
                     cell(run.delivered), cell(run.late), cell(run.lost),
                     cell(run.credit_stalls), cell(run.elapsed_s * 1000.0, 1)});
    };
    const ThroughputRun ring = run_throughput(timely_links, plane_rounds, 0xE14);
    add_row("all-timely", ring);
    json.add("plane_throughput")
        .set("plane", "ring")
        .set("n", static_cast<std::int64_t>(plane_n))
        .set("rounds", static_cast<std::int64_t>(plane_rounds))
        .set("process_rounds_per_sec", ring.process_rounds_per_sec)
        .set("delivered_messages", ring.delivered)
        .set("credit_stall_total", ring.credit_stalls);
    const ThroughputRun hub = run_throughput(hub_links, plane_rounds, 0xE14);
    add_row("hub cover + flaky 0.35", hub);
    json.add("plane_throughput")
        .set("adversary", "hub_flaky")
        .set("plane", "ring")
        .set("n", static_cast<std::int64_t>(plane_n))
        .set("rounds", static_cast<std::int64_t>(plane_rounds))
        .set("process_rounds_per_sec", hub.process_rounds_per_sec)
        .set("delivered_messages", hub.delivered)
        .set("late_messages", hub.late)
        .set("lost_messages", hub.lost)
        .set("credit_stall_total", hub.credit_stalls);
    table.print(std::cout);

    const double ring_rate = ring.process_rounds_per_sec;
    const bool rate_ok = ring_rate >= 1e6;
    all_ok = all_ok && rate_ok;
    std::cout << "ring plane: " << static_cast<std::int64_t>(ring_rate)
              << " process-rounds/s (gate >= 1,000,000: "
              << (rate_ok ? "PASS" : "FAIL") << ")\n\n";
    json.add("plane_rate_gate")
        .set("ring_process_rounds_per_sec", ring_rate)
        .set("rate_gate_pass", static_cast<std::int64_t>(rate_ok));
  }

  const char* path_env = std::getenv("SSKEL_BENCH_JSON");
  const std::string path =
      path_env != nullptr ? path_env : "BENCH_network.json";
  if (json.write_file(path)) {
    std::cout << "wrote " << path << '\n';
  } else {
    std::cerr << "warning: could not write " << path << '\n';
  }
  std::cout << (all_ok ? "RESULT: all message-plane gates held.\n"
                       : "RESULT: GATE FAILURES (see above).\n");
  return all_ok ? 0 : 1;
}
