// E13 — scale gates for the tiered ProcSet stack (DESIGN.md §11).
//
// Three measurements, all on post-decay skeletons (disjoint complete
// blocks — the stable structure every partition-style adversary leaves
// behind):
//
//   1. intersection micro pair — the lemma monitor's historical row
//      probe (`tmp = out-row; tmp &= in-row; count`) swept over a
//      window of retained skeleton snapshots, run twice: once pinned
//      to the seed's flat dense representation (ScopedTierPolicy
//      kDenseOnly) and once under the tiered auto policy. Totals must
//      match bit-for-bit; the ratio is the headline number.
//   2. SCC micro pair — strongly_connected_components plus the root
//      scan on the same decayed graph, dense vs tiered ("blocked
//      Tarjan": member iteration walks the summary/sparse tier
//      instead of scanning the full row span).
//   3. a full Theorem-1 run at n = 65,536 — skeleton tracking through
//      a deterministic decay schedule (transient cross-block edges
//      plus internal-edge batches that exercise the multi-edge
//      targeted reachability path), stabilization detection, and the
//      decision rule (per-process min over the root components that
//      reach it). Gates: the run completes, root components <= k,
//      distinct decisions <= k, and the incremental decomposition
//      matches a from-scratch Tarjan on the final skeleton.
//
// Speedup gates: >= 5x at n = 65,536, where the dense representation
// streams O(n/64) words per row against the tiered O(active blocks)
// (measured: ~125x on the probe sweep, ~27x on the analytics pass).
// The n = 4096 rows carry floor gates only (2x probes, 1.3x SCC): at
// a 64-word span the fixed per-row costs (ProcSet object, Tarjan's
// per-node bookkeeping) bound the ratio well below the asymptotic
// span/active quotient — measured ~9x and ~1.7x respectively; see
// EXPERIMENTS.md for the curve.
//
// A fourth table times Algorithm 1 itself: one run_kset on a
// random-Psrcs source (k = 4, byte accounting off) per n in
// {64, 128, 256, 512}, on the O(n)-state process (DESIGN.md §8.1).
// Its gate is completion: every process decides, at most k values.
//
// SSKEL_SMOKE=1 drops the n = 65,536 rows, shrinks the windows and
// runs Algorithm 1 at n in {8, 64} for CI; SSKEL_BENCH_JSON overrides
// the BENCH_scale.json path. Peak ProcSet bytes are recorded per arm
// (reset_peak_bytes before each), so the memory side of the
// representation change is regression-tracked alongside the timings.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "adversary/random_psrcs.hpp"
#include "graph/digraph.hpp"
#include "graph/scc.hpp"
#include "kset/runner.hpp"
#include "skeleton/tracker.hpp"
#include "util/bench_json.hpp"
#include "util/proc_set.hpp"
#include "util/table.hpp"

namespace {

using namespace sskel;
using Clock = std::chrono::steady_clock;

[[nodiscard]] std::int64_t ns_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

/// Disjoint complete blocks of `block` processes (self-loops in): the
/// stable skeleton of a partitioned system, fully decayed.
Digraph block_skeleton(ProcId n, ProcId block) {
  Digraph g(n);
  g.add_self_loops();
  for (ProcId base = 0; base < n; base += block) {
    for (ProcId q = base; q < base + block; ++q) {
      for (ProcId p = base; p < base + block; ++p) {
        if (q != p) g.add_edge(q, p);
      }
    }
  }
  return g;
}

/// Sorted-by-first-member copy, for order-insensitive decomposition
/// comparison (same helper as bench_theorem1).
std::vector<ProcSet> sorted_sets(std::vector<ProcSet> sets) {
  std::sort(sets.begin(), sets.end(),
            [](const ProcSet& a, const ProcSet& b) {
              return a.first() < b.first();
            });
  return sets;
}

// --- intersection micro ---------------------------------------------------

struct IntersectArm {
  std::int64_t ns = 0;
  std::int64_t total = 0;       // sum of intersection popcounts
  std::int64_t peak_bytes = 0;  // ProcSet high-water mark for the arm
};

/// The monitor's historical probe: `window` retained snapshots of the
/// decayed skeleton (LemmaMonitor keeps every round with kKeepAll, and
/// Lemma 7 resolves bases r - n + 1 rounds back), swept row by row:
/// out-row of one snapshot AND in-row of the next, popcounted. Runs
/// under whatever tier policy is active when called.
IntersectArm run_intersect_arm(ProcId n, ProcId block, int window,
                               int reps) {
  IntersectArm arm;
  ProcSet::reset_peak_bytes();
  std::vector<Digraph> snaps;
  snaps.reserve(static_cast<std::size_t>(window));
  snaps.push_back(block_skeleton(n, block));
  for (int w = 1; w < window; ++w) snaps.push_back(snaps.front());

  ProcSet tmp(n);
  const auto start = Clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    for (int w = 0; w < window; ++w) {
      const Digraph& a = snaps[static_cast<std::size_t>(w)];
      const Digraph& b =
          snaps[static_cast<std::size_t>((w + 1) % window)];
      for (ProcId p = 0; p < n; ++p) {
        // (p + 1) stays inside p's block except at block boundaries,
        // so most probes intersect to the shared block and the rest
        // prove disjointness — both directions of the verdict.
        const ProcId q = (p + 1) % n;
        tmp = a.out_neighbors(p);
        tmp &= b.in_neighbors(q);
        arm.total += tmp.count();
      }
    }
  }
  arm.ns = ns_since(start);
  arm.peak_bytes = ProcSet::peak_bytes();
  return arm;
}

// --- SCC micro ------------------------------------------------------------

struct SccArm {
  std::int64_t ns = 0;
  std::int64_t components = 0;
  std::int64_t roots = 0;
  std::int64_t checksum = 0;  // order-insensitive digest of the result
  std::int64_t peak_bytes = 0;
};

/// Full analytics pass on the decayed skeleton: Tarjan plus the root
/// scan, `reps` times. Small blocks keep member iteration light so the
/// timed region is dominated by the row walks the representation
/// changes (dense: full span; tiered: summary/sparse skip).
SccArm run_scc_arm(ProcId n, ProcId block, int reps) {
  SccArm arm;
  ProcSet::reset_peak_bytes();
  const Digraph skel = block_skeleton(n, block);
  const auto start = Clock::now();
  for (int rep = 0; rep < reps; ++rep) {
    const SccDecomposition scc = strongly_connected_components(skel);
    const std::vector<int> roots = root_component_indices(skel, scc);
    arm.components = static_cast<std::int64_t>(scc.components.size());
    arm.roots = static_cast<std::int64_t>(roots.size());
    arm.checksum = 0;
    for (const ProcSet& c : scc.components) {
      arm.checksum += static_cast<std::int64_t>(c.first()) + c.count();
    }
  }
  arm.ns = ns_since(start);
  arm.peak_bytes = ProcSet::peak_bytes();
  return arm;
}

// --- Theorem-1 scale run --------------------------------------------------

struct ScaleRun {
  ProcId n = 0;
  int k = 0;
  ProcId blocks = 0;
  Round rounds = 0;
  Round last_change = 0;
  Round stabilized = 0;
  std::int64_t root_components = 0;
  std::int64_t distinct_decisions = 0;
  std::int64_t build_ns = 0;
  std::int64_t run_ns = 0;
  std::int64_t decide_ns = 0;
  std::int64_t analytics_recomputes = 0;
  std::int64_t peak_bytes = 0;
  std::int64_t live_bytes = 0;
  bool scc_match = false;
  bool ok = false;
};

/// One full Theorem-1 run: a partitioned system of n/`block`
/// complete blocks (so Psrcs(k) holds with k = #blocks) decays from
/// transient cross-block edges over `kFade` rounds, the tracker's
/// analytics are queried every round from round 1 on, and once the
/// tail proves stabilization every process decides the minimum value
/// among the root components that reach it — the paper's rule, which
/// bounds distinct decisions by the number of root components <= k.
///
/// The decay schedule is deterministic (per-pair Bernoulli noise at
/// n = 65,536 would cost O(n^2) RNG draws per round and time nothing
/// but the generator):
///   * a cross-edge chain leader(b) -> leader(b+1) whose edge for
///     block b survives through round 1 + (b mod kFade) — while it
///     lives, block b+1 is not a root; every expiry is an external
///     edge loss with a root recheck;
///   * every 8th block loses two *internal* edges in round
///     kInternalLossRound's intersection — a same-component deletion
///     batch that exercises IncrementalScc's multi-edge targeted
///     reachability probes.
ScaleRun run_theorem1_scale(ProcId n, ProcId block) {
  constexpr Round kFade = 6;
  constexpr Round kInternalLossRound = 5;
  ScaleRun run;
  run.n = n;
  run.blocks = n / block;
  run.k = static_cast<int>(run.blocks);
  run.rounds = kFade + 5;
  ProcSet::reset_peak_bytes();

  struct Transient {
    ProcId q;
    ProcId p;
    Round until;  // present in the round graphs 1 .. until
  };
  std::vector<Transient> transients;
  for (ProcId b = 0; b + 1 < run.blocks; ++b) {
    transients.push_back(
        {b * block, (b + 1) * block, 1 + (b % kFade)});
  }
  for (ProcId b = 0; b < run.blocks; b += 8) {
    const ProcId base = b * block;
    transients.push_back({base + 1, base + 2, kInternalLossRound - 1});
    transients.push_back({base + 3, base + 4, kInternalLossRound - 1});
  }

  auto build_start = Clock::now();
  Digraph g = block_skeleton(n, block);
  for (const Transient& t : transients) g.add_edge(t.q, t.p);
  run.build_ns = ns_since(build_start);

  const auto run_start = Clock::now();
  SkeletonTracker tracker(n);
  for (Round r = 1; r <= run.rounds; ++r) {
    for (const Transient& t : transients) {
      if (t.until == r - 1) g.remove_edge(t.q, t.p);
    }
    tracker.observe(r, g);
    // Analytics every round, like a monitor: round 1 seeds the
    // (blocked) Tarjan on the freshly decayed skeleton, the rest run
    // the incremental maintainer over the small per-round deltas.
    (void)tracker.current_scc();
    (void)tracker.current_root_components();
  }
  run.run_ns = ns_since(run_start);
  run.last_change = tracker.last_change_round();
  run.stabilized = tracker.stabilized_for();
  run.analytics_recomputes = tracker.analytics_recomputes();

  // Decision phase on the stable skeleton: condense, then push root
  // minima down the component DAG in topological order.
  const auto decide_start = Clock::now();
  const Digraph& skel = tracker.skeleton();
  const SccDecomposition& scc = tracker.current_scc();
  const std::vector<int>& root_idx = tracker.current_root_indices();
  run.root_components = static_cast<std::int64_t>(root_idx.size());
  const std::size_t comps = scc.components.size();
  const auto cn = static_cast<ProcId>(comps);
  std::vector<ProcSet> dag_succ(comps, ProcSet(cn));
  for (ProcId p : skel.nodes()) {
    const int cp = scc.component_of[static_cast<std::size_t>(p)];
    for (ProcId q : skel.out_neighbors(p)) {
      const int cq = scc.component_of[static_cast<std::size_t>(q)];
      if (cq != cp) dag_succ[static_cast<std::size_t>(cp)].insert(cq);
    }
  }
  std::vector<int> indegree(comps, 0);
  for (const ProcSet& succ : dag_succ) {
    for (ProcId d : succ) ++indegree[static_cast<std::size_t>(d)];
  }
  // Values are the process ids, so a component's minimum value is its
  // first member; only roots seed the relaxation.
  std::vector<Value> rmin(comps, kNoValue);
  for (int idx : root_idx) {
    rmin[static_cast<std::size_t>(idx)] =
        scc.components[static_cast<std::size_t>(idx)].first();
  }
  std::vector<int> queue;
  for (std::size_t c = 0; c < comps; ++c) {
    if (indegree[c] == 0) queue.push_back(static_cast<int>(c));
  }
  bool decided_all = true;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const auto c = static_cast<std::size_t>(queue[head]);
    if (rmin[c] == kNoValue) decided_all = false;  // unreachable from roots
    for (ProcId d : dag_succ[c]) {
      const auto di = static_cast<std::size_t>(d);
      if (rmin[c] != kNoValue &&
          (rmin[di] == kNoValue || rmin[c] < rmin[di])) {
        rmin[di] = rmin[c];
      }
      if (--indegree[di] == 0) queue.push_back(d);
    }
  }
  decided_all = decided_all && queue.size() == comps;
  std::vector<Value> decisions;
  std::int64_t members = 0;
  for (std::size_t c = 0; c < comps; ++c) {
    members += scc.components[c].count();
    if (rmin[c] == kNoValue) decided_all = false;
    decisions.push_back(rmin[c]);
  }
  std::sort(decisions.begin(), decisions.end());
  decisions.erase(std::unique(decisions.begin(), decisions.end()),
                  decisions.end());
  run.distinct_decisions = static_cast<std::int64_t>(decisions.size());
  run.decide_ns = ns_since(decide_start);

  // Soundness anchor: the incrementally maintained decomposition must
  // match a from-scratch Tarjan on the final skeleton.
  const SccDecomposition fresh = strongly_connected_components(skel);
  run.scc_match =
      sorted_sets(fresh.components) == sorted_sets(scc.components);

  run.peak_bytes = ProcSet::peak_bytes();
  run.live_bytes = ProcSet::live_bytes();
  run.ok = decided_all && members == n && run.scc_match &&
           run.root_components <= run.k &&
           run.distinct_decisions <= run.k &&
           run.last_change == kFade + 1 && run.stabilized >= 3;
  return run;
}

// --- Algorithm 1 at scale -------------------------------------------------

struct KSetScaleRun {
  ProcId n = 0;
  int k = 4;
  Round rounds = 0;
  Round last_decision = 0;
  std::int64_t distinct_decisions = 0;
  std::int64_t wall_ns = 0;
  std::int64_t peak_bytes = 0;
  bool ok = false;
};

/// One Algorithm 1 run on one thread: random Psrcs(4) with four root
/// components, stabilizing at round 4 under 0.25 edge noise — the
/// perfbench `consensus` trial shape — with byte accounting off.
KSetScaleRun run_kset_scale(ProcId n) {
  KSetScaleRun run;
  run.n = n;
  RandomPsrcsParams params;
  params.n = n;
  params.k = run.k;
  params.root_components = run.k;
  params.max_core_size = 4;
  params.noise_probability = 0.25;
  params.stabilization_round = 4;
  RandomPsrcsSource source(0x5CA1E + static_cast<std::uint64_t>(n), params);
  KSetRunConfig config;
  config.k = run.k;
  ProcSet::reset_peak_bytes();
  const auto start = Clock::now();
  const KSetRunReport report = run_kset(source, config);
  run.wall_ns = ns_since(start);
  run.peak_bytes = ProcSet::peak_bytes();
  run.rounds = report.rounds_executed;
  run.last_decision = report.last_decision_round;
  run.distinct_decisions = report.distinct_values;
  run.ok = report.all_decided && report.verdict.all_hold();
  return run;
}

}  // namespace

int main() {
  using namespace sskel;
  std::cout << "==================================================\n"
            << " E13: scale gates — tiered ProcSet vs flat dense\n"
            << "      (post-decay skeletons; n up to 65,536)\n"
            << "==================================================\n\n";

  const bool smoke = std::getenv("SSKEL_SMOKE") != nullptr;
  BenchJson json("scale");
  bool all_ok = true;

  // Every gated row demands tiered >= `gate` x dense. 5x is the
  // asymptotic claim at n = 65,536; 2x is the floor at n = 4096 where
  // fixed per-row costs bound the quotient (see file comment).
  struct MicroCfg {
    ProcId n;
    ProcId block;
    int window;
    int reps;
    double gate;
  };

  // --- intersection micro pair -------------------------------------------
  std::vector<MicroCfg> icfgs;
  icfgs.push_back({4096, 64, smoke ? 8 : 32, smoke ? 1 : 3, 2.0});
  if (!smoke) icfgs.push_back({65536, 64, 2, 2, 5.0});
  Table itable("row-probe intersection sweep: dense vs tiered",
               {"n", "window", "dense ms", "tiered ms", "speedup", "gate",
                "match"});
  for (const MicroCfg& cfg : icfgs) {
    IntersectArm dense;
    {
      ScopedTierPolicy scope(ProcSet::TierPolicy::kDenseOnly);
      dense = run_intersect_arm(cfg.n, cfg.block, cfg.window, cfg.reps);
    }
    const IntersectArm tiered =
        run_intersect_arm(cfg.n, cfg.block, cfg.window, cfg.reps);
    const bool match = dense.total == tiered.total;
    const double speedup =
        tiered.ns > 0 ? static_cast<double>(dense.ns) /
                            static_cast<double>(tiered.ns)
                      : 0.0;
    if (!match) {
      std::cerr << "intersect MISMATCH: n=" << cfg.n << " dense total "
                << dense.total << " != tiered " << tiered.total << "\n";
      all_ok = false;
    }
    if (speedup < cfg.gate) {
      std::cerr << "intersect gate FAILED: n=" << cfg.n << " speedup "
                << speedup << " < " << cfg.gate << "\n";
      all_ok = false;
    }
    itable.add_row({cell(cfg.n), cell(cfg.window),
                    cell(static_cast<double>(dense.ns) / 1e6, 2),
                    cell(static_cast<double>(tiered.ns) / 1e6, 2),
                    cell(speedup, 1), cell(cfg.gate, 1),
                    match ? "yes" : "NO"});
    json.add("micro_intersect")
        .set("n", cfg.n)
        .set("window", cfg.window)
        .set("reps", cfg.reps)
        .set("dense_ns", dense.ns)
        .set("tiered_ns", tiered.ns)
        .set("speedup", speedup)
        .set("gate", cfg.gate)
        .set("match", static_cast<std::int64_t>(match))
        .set("peak_bytes_dense", dense.peak_bytes)
        .set("peak_bytes_tiered", tiered.peak_bytes);
  }
  itable.print(std::cout);

  // --- SCC micro pair ----------------------------------------------------
  std::vector<MicroCfg> scfgs;
  scfgs.push_back({4096, 8, 0, smoke ? 2 : 5, 1.3});
  if (!smoke) scfgs.push_back({65536, 8, 0, 2, 5.0});
  Table stable_tbl("SCC + root analytics: dense vs blocked/tiered Tarjan",
                   {"n", "components", "dense ms", "tiered ms", "speedup",
                    "gate", "match"});
  for (const MicroCfg& cfg : scfgs) {
    SccArm dense;
    {
      ScopedTierPolicy scope(ProcSet::TierPolicy::kDenseOnly);
      dense = run_scc_arm(cfg.n, cfg.block, cfg.reps);
    }
    const SccArm tiered = run_scc_arm(cfg.n, cfg.block, cfg.reps);
    const bool match = dense.components == tiered.components &&
                       dense.roots == tiered.roots &&
                       dense.checksum == tiered.checksum;
    const double speedup =
        tiered.ns > 0 ? static_cast<double>(dense.ns) /
                            static_cast<double>(tiered.ns)
                      : 0.0;
    if (!match) {
      std::cerr << "scc MISMATCH: n=" << cfg.n << "\n";
      all_ok = false;
    }
    if (speedup < cfg.gate) {
      std::cerr << "scc gate FAILED: n=" << cfg.n << " speedup " << speedup
                << " < " << cfg.gate << "\n";
      all_ok = false;
    }
    stable_tbl.add_row({cell(cfg.n), cell(dense.components),
                        cell(static_cast<double>(dense.ns) / 1e6, 2),
                        cell(static_cast<double>(tiered.ns) / 1e6, 2),
                        cell(speedup, 1), cell(cfg.gate, 1),
                        match ? "yes" : "NO"});
    json.add("micro_scc")
        .set("n", cfg.n)
        .set("block", cfg.block)
        .set("reps", cfg.reps)
        .set("components", dense.components)
        .set("dense_ns", dense.ns)
        .set("tiered_ns", tiered.ns)
        .set("speedup", speedup)
        .set("gate", cfg.gate)
        .set("match", static_cast<std::int64_t>(match))
        .set("peak_bytes_dense", dense.peak_bytes)
        .set("peak_bytes_tiered", tiered.peak_bytes);
  }
  stable_tbl.print(std::cout);

  // --- Theorem-1 run at scale --------------------------------------------
  std::vector<ProcId> run_sizes = {4096};
  if (!smoke) run_sizes.push_back(65536);
  Table rtable("Theorem 1 at scale: stabilization + decision",
               {"n", "k", "rounds", "r_ST", "roots", "decisions",
                "track ms", "decide ms", "peak MB", "ok"});
  for (const ProcId n : run_sizes) {
    const ScaleRun run = run_theorem1_scale(n, 64);
    all_ok = all_ok && run.ok;
    if (!run.ok) {
      std::cerr << "theorem1 scale run FAILED at n=" << n
                << " (roots=" << run.root_components
                << " decisions=" << run.distinct_decisions
                << " r_ST=" << run.last_change
                << " scc_match=" << run.scc_match << ")\n";
    }
    rtable.add_row(
        {cell(run.n), cell(run.k), cell(static_cast<std::int64_t>(run.rounds)),
         cell(static_cast<std::int64_t>(run.last_change)),
         cell(run.root_components), cell(run.distinct_decisions),
         cell(static_cast<double>(run.run_ns) / 1e6, 2),
         cell(static_cast<double>(run.decide_ns) / 1e6, 2),
         cell(static_cast<double>(run.peak_bytes) / (1024.0 * 1024.0), 1),
         run.ok ? "yes" : "NO"});
    json.add("theorem1_scale")
        .set("n", run.n)
        .set("k", run.k)
        .set("rounds", static_cast<std::int64_t>(run.rounds))
        .set("blocks", run.blocks)
        .set("last_change_round", static_cast<std::int64_t>(run.last_change))
        .set("stabilized_rounds", static_cast<std::int64_t>(run.stabilized))
        .set("root_components", run.root_components)
        .set("distinct_decisions", run.distinct_decisions)
        .set("build_ns", run.build_ns)
        .set("track_ns", run.run_ns)
        .set("decide_ns", run.decide_ns)
        .set("analytics_recomputes", run.analytics_recomputes)
        .set("scc_match", static_cast<std::int64_t>(run.scc_match))
        .set("peak_proc_set_bytes", run.peak_bytes)
        .set("live_proc_set_bytes", run.live_bytes)
        .set("completed", static_cast<std::int64_t>(run.ok));
  }
  rtable.print(std::cout);

  // --- Algorithm 1 at scale ----------------------------------------------
  const std::vector<ProcId> kset_sizes =
      smoke ? std::vector<ProcId>{8, 64}
            : std::vector<ProcId>{64, 128, 256, 512};
  Table ktable("Algorithm 1 at scale: run_kset, random Psrcs(4)",
               {"n", "rounds", "last decision", "decisions", "wall ms",
                "us/process-round", "peak MB", "ok"});
  for (const ProcId n : kset_sizes) {
    const KSetScaleRun run = run_kset_scale(n);
    all_ok = all_ok && run.ok;
    if (!run.ok) {
      std::cerr << "kset scale run FAILED at n=" << n
                << " (decisions=" << run.distinct_decisions << ")\n";
    }
    const std::int64_t process_rounds =
        static_cast<std::int64_t>(run.n) * run.rounds;
    const std::int64_t process_round_ns =
        process_rounds > 0 ? run.wall_ns / process_rounds : 0;
    ktable.add_row(
        {cell(run.n), cell(static_cast<std::int64_t>(run.rounds)),
         cell(static_cast<std::int64_t>(run.last_decision)),
         cell(run.distinct_decisions),
         cell(static_cast<double>(run.wall_ns) / 1e6, 1),
         cell(static_cast<double>(process_round_ns) / 1e3, 2),
         cell(static_cast<double>(run.peak_bytes) / (1024.0 * 1024.0), 1),
         run.ok ? "yes" : "NO"});
    json.add("kset_run")
        .set("n", run.n)
        .set("k", run.k)
        .set("rounds", static_cast<std::int64_t>(run.rounds))
        .set("last_decision_round",
             static_cast<std::int64_t>(run.last_decision))
        .set("distinct_decisions", run.distinct_decisions)
        .set("wall_ns", run.wall_ns)
        .set("process_round_ns", process_round_ns)
        .set("peak_proc_set_bytes", run.peak_bytes)
        .set("completed", static_cast<std::int64_t>(run.ok));
  }
  ktable.print(std::cout);

  const char* path_env = std::getenv("SSKEL_BENCH_JSON");
  const std::string path = path_env != nullptr ? path_env : "BENCH_scale.json";
  if (json.write_file(path)) {
    std::cout << "wrote " << path << '\n';
  } else {
    std::cerr << "warning: could not write " << path << '\n';
  }
  std::cout << (all_ok ? "RESULT: all scale gates held.\n"
                       : "RESULT: GATE FAILURES (see above).\n");
  return all_ok ? 0 : 1;
}
