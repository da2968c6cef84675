// E15 — Monte-Carlo trial scheduling on the persistent tile-plane
// service (DESIGN.md §13).
//
// The fleet workload is many small trial batches against a scenario
// whose structure space has *converged*: every trial meets the same
// few skeletons, so a trial is mostly round execution plus fixed
// costs. McTilePlane keeps those fixed costs off the per-batch path:
// persistent tiles and per-tile trial scratch that resets engine,
// processes and tracker in place instead of reconstructing them.
//
// Every batch's digest (a cheap projection of the trial-derived
// summary fields) must equal that of a serial left fold of the same
// seeds, in the warm-up and in every timed rep; the McTilePlane
// tripwire tests pin the full struct. Throughput is not gated here:
// CI's bench-regression job diffs plane_trials_per_sec against the
// committed BENCH_mc.json. A tile-count sweep reports scaling plus the
// topology placement map and failed-pin count (the host may have
// fewer cores than tiles; the sweep is about correctness of
// oversubscription).
//
// SSKEL_SMOKE=1 shrinks the sweeps for CI; SSKEL_BENCH_JSON overrides
// the BENCH_mc.json path. Rate fields end in _per_sec so
// tools/bench_diff.py treats them as higher-is-better.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "adversary/partition.hpp"
#include "mc/mc_plane.hpp"
#include "mc/montecarlo.hpp"
#include "util/bench_json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace sskel;
using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Trial-derived projection of a summary: any divergence from the
/// serial fold in any trial perturbs at least one of these.
/// Service-level fields (tile provenance, memory marks) are
/// deliberately excluded — the serial fold has none.
[[nodiscard]] std::string summary_digest(const McSummary& s) {
  std::string d;
  d += std::to_string(s.runs) + "|" + std::to_string(s.undecided_runs);
  d += "|" + std::to_string(s.agreement_violations);
  d += "|" + std::to_string(s.bound_violations);
  d += "|" + s.distinct_histogram.to_string();
  d += "|" + s.root_histogram.to_string();
  d += "|" + std::to_string(s.last_decision_round.sum());
  d += "|" + std::to_string(s.stabilization_round.sum());
  d += "|" + std::to_string(s.total_messages.sum());
  return d;
}

}  // namespace

int main() {
  const bool smoke = std::getenv("SSKEL_SMOKE") != nullptr;
  BenchJson json("mc");

  // The converged workload: a 2-block partition of n = 4 that is
  // stable from round 1, so the structure space is tiny and converges
  // within the first batch. Small n keeps per-trial execution short,
  // which is exactly the fleet regime where per-batch and per-trial
  // fixed costs (engine/process construction) would dominate the
  // batch — the cost class the tile plane eliminates.
  const ProcId n = 4;
  PartitionParams params;
  params.blocks = even_blocks(n, 2);
  params.cross_noise_probability = 0.0;
  params.stabilization_round = 1;
  const PartitionScenario scenario(params);

  KSetRunConfig config;
  config.k = 2;

  std::cout << "========================================================\n"
            << " E15: Monte-Carlo scheduling — tile-plane service\n"
            << " (partition n=4, m=2, converged structure space)\n"
            << "========================================================\n\n";

  {
    const int batches = smoke ? 12 : 96;
    // One trial per request: the fleet's smallest batch, where the
    // per-batch and per-trial fixed costs are least amortized.
    const int trials_per_batch = 1;
    const int warm_batches = smoke ? 4 : 16;
    const int reps = smoke ? 2 : 3;
    const std::uint64_t master = 0xE15BA5E;

    // Reference digests: batch b (seed master + b) folded serially —
    // one thread, no scratch.
    std::vector<std::string> reference;
    reference.reserve(static_cast<std::size_t>(batches));
    for (int b = 0; b < batches; ++b) {
      McSummary serial;
      serial.bytes_measured = config.measure_bytes;
      const std::uint64_t batch_seed = master + static_cast<std::uint64_t>(b);
      for (int t = 0; t < trials_per_batch; ++t) {
        fold_scenario_trial(
            serial,
            scenario.run_trial(
                mix_seed(batch_seed, static_cast<std::uint64_t>(t)), config),
            config);
      }
      reference.push_back(summary_digest(serial));
    }

    // One plane reused across every batch — the per-trial state
    // (engines, trackers, processes) persists. An untimed warm-up
    // (allocator, code, tile threads) comes first, then `reps`
    // identically seeded timed repetitions; the minimum elapsed is the
    // score, so it measures steady-state batch cost, not noise on a
    // busy host.
    McTilePlane plane(scenario, McPlaneOptions{});
    auto plane_batch = [&](int b) {
      return summary_digest(plane.run(master + static_cast<std::uint64_t>(b),
                                      trials_per_batch, config));
    };
    for (int b = 0; b < warm_batches; ++b) {
      SSKEL_ASSERT(plane_batch(b % batches) ==
                   reference[static_cast<std::size_t>(b % batches)]);
    }
    double plane_s = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      const Clock::time_point start = Clock::now();
      for (int b = 0; b < batches; ++b) {
        SSKEL_ASSERT(plane_batch(b) == reference[static_cast<std::size_t>(b)]);
      }
      const double elapsed = seconds_since(start);
      plane_s = rep == 0 ? elapsed : std::min(plane_s, elapsed);
    }

    const double total_trials =
        static_cast<double>(batches) * static_cast<double>(trials_per_batch);
    const double plane_rate = total_trials / (plane_s > 0.0 ? plane_s : 1e-9);

    Table table("batched service throughput (" + std::to_string(batches) +
                    " batches x " + std::to_string(trials_per_batch) +
                    " trials, best of " + std::to_string(reps) + " reps)",
                {"scheduler", "trials/s", "elapsed (ms)"});
    table.add_row({"tile-plane service", cell(plane_rate, 0),
                   cell(plane_s * 1000.0, 1)});
    table.print(std::cout);
    std::cout << "digests equal to the serial fold on every batch of every "
                 "rep\n\n";

    json.add("service_speedup")
        .set("batches", batches)
        .set("trials_per_batch", trials_per_batch)
        .set("timing_reps", reps)
        .set("plane_trials_per_sec", plane_rate)
        .set("trials_executed", plane.trials_executed());
  }

  std::cout << "========================================================\n"
            << " E15b: tile-count sweep (placement + pin accounting)\n"
            << "========================================================\n\n";

  {
    const int trials = smoke ? 24 : 96;
    const std::uint64_t master = 0xE15B;
    std::string reference_digest;

    Table table("tile sweep (" + std::to_string(trials) + " trials per row)",
                {"tiles", "trials/s", "placement", "failed pins",
                 "submit stalls", "result stalls"});
    for (unsigned tiles : {1u, 2u, 4u}) {
      McPlaneOptions options;
      options.tiles = tiles;
      options.pin_tiles = true;  // exercises topology-derived placement
      McTilePlane plane(scenario, options);
      const Clock::time_point start = Clock::now();
      const McSummary summary = plane.run(master, trials, config);
      const double elapsed = seconds_since(start);
      const double rate =
          static_cast<double>(trials) / (elapsed > 0.0 ? elapsed : 1e-9);

      const std::string digest = summary_digest(summary);
      if (reference_digest.empty()) reference_digest = digest;
      SSKEL_ASSERT(digest == reference_digest);

      table.add_row({cell(static_cast<std::int64_t>(tiles)), cell(rate, 0),
                     summary.tile_placement.empty() ? "-"
                                                    : summary.tile_placement,
                     cell(summary.failed_pins), cell(plane.submit_stalls()),
                     cell(plane.result_stalls())});
      json.add("tile_sweep")
          .set("tiles", static_cast<std::int64_t>(tiles))
          .set("trials", trials)
          .set("trials_per_sec", rate)
          .set("tile_placement", summary.tile_placement)
          .set("failed_pins", summary.failed_pins)
          .set("credit_stall_submit", plane.submit_stalls())
          .set("credit_stall_result", plane.result_stalls());
    }
    table.print(std::cout);
    std::cout << "summaries bit-identical across tile counts "
              << "(trial-index-keyed fold)\n\n";
  }

  const char* path_env = std::getenv("SSKEL_BENCH_JSON");
  const std::string path = path_env != nullptr ? path_env : "BENCH_mc.json";
  if (json.write_file(path)) {
    std::cout << "wrote " << path << '\n';
  } else {
    std::cerr << "warning: could not write " << path << '\n';
  }
  std::cout << "RESULT: tile-plane summaries matched the serial fold and "
               "every tile count.\n";
  return 0;
}
