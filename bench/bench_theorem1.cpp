// E2 — Theorem 1 empirically: across random Psrcs(k) adversaries, the
// stable skeleton never has more than k root components and
// Algorithm 1 never decides more than k values.
//
// Sweep: n x k x j (engineered root components), 100 seeded trials per
// row. Columns report the distribution of root components and distinct
// decisions; the "viol" columns must stay 0.
// Besides the table, the binary writes BENCH_theorem1.json: one
// record per sweep row, including the Psrcs(k) decision cost on the
// row's stable skeleton (branch-and-bound subsets visited vs the
// C(n, k+1) brute-force baseline). SSKEL_SMOKE=1 cuts the trial count
// for CI; SSKEL_BENCH_JSON overrides the output path.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "adversary/partition.hpp"
#include "adversary/random_psrcs.hpp"
#include "adversary/rotating.hpp"
#include "graph/reach.hpp"
#include "graph/scc.hpp"
#include "kset/runner.hpp"
#include "mc/mc_plane.hpp"
#include "oracles/psrcs_bruteforce.hpp"
#include "predicates/psrcs.hpp"
#include "skeleton/intern.hpp"
#include "skeleton/tracker.hpp"
#include "util/bench_json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace sskel;

/// Sorted-by-first-member copy of a component list, for the
/// order-insensitive final equality check between the incremental
/// maintainer and the Tarjan baseline.
std::vector<ProcSet> sorted_sets(std::vector<ProcSet> sets) {
  std::sort(sets.begin(), sets.end(),
            [](const ProcSet& a, const ProcSet& b) {
              return a.first() < b.first();
            });
  return sets;
}

struct IncSccRow {
  std::string adversary;
  ProcId n = 0;
  Round rounds = 0;
  std::int64_t bumps = 0;
  std::int64_t tarjan_ns = 0;
  std::int64_t incremental_ns = 0;
  double speedup = 0.0;
  bool decompositions_match = false;
};

/// One shrink-heavy run, measured twice over the *same* materialized
/// graph sequence. The per-round graphs are generated up front so the
/// timed region is exactly what the two strategies differ on:
/// intersection plus SCC/root analytics. (Generating noisy partition
/// graphs costs millions of RNG draws per run — timed, it swamps the
/// analytics on both sides and the ratio collapses toward 1.)
///   baseline    — per-bump Tarjan + condensation root scan, i.e. what
///                 the tracker recomputed before the maintainer existed;
///   incremental — SkeletonTracker's delta-driven maintainer, queried
///                 every round like a monitor would.
IncSccRow run_inc_scc_pair(const std::string& adversary, GraphSource& source,
                           Round rounds) {
  using Clock = std::chrono::steady_clock;
  IncSccRow row;
  row.adversary = adversary;
  row.n = source.n();
  row.rounds = rounds;
  const ProcId n = source.n();

  std::vector<Digraph> seq;
  seq.reserve(static_cast<std::size_t>(rounds));
  for (Round r = 1; r <= rounds; ++r) {
    Digraph g(n);
    source.graph_into(r, g);
    g.add_self_loops();
    seq.push_back(std::move(g));
  }

  // Baseline: rerun Tarjan on every skeleton change.
  SccDecomposition base_scc;
  std::vector<ProcSet> base_roots;
  Digraph base_skel = Digraph::complete(n);
  const auto base_start = Clock::now();
  for (const Digraph& g : seq) {
    if (base_skel.intersect_with(g)) {
      ++row.bumps;
      base_scc = strongly_connected_components(base_skel);
      base_roots.clear();
      for (int idx : root_component_indices(base_skel, base_scc)) {
        base_roots.push_back(
            base_scc.components[static_cast<std::size_t>(idx)]);
      }
    }
  }
  row.tarjan_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - base_start)
                      .count();

  // Incremental: identical round sequence through the tracker.
  SkeletonTracker tracker(n);
  (void)tracker.current_scc();  // seed before the timed loop's rounds
  const auto inc_start = Clock::now();
  Round round = 0;
  for (const Digraph& g : seq) {
    tracker.observe(++round, g);
    (void)tracker.current_scc();
    (void)tracker.current_root_components();
  }
  row.incremental_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - inc_start)
                           .count();

  row.speedup = row.incremental_ns > 0
                    ? static_cast<double>(row.tarjan_ns) /
                          static_cast<double>(row.incremental_ns)
                    : 0.0;
  row.decompositions_match =
      base_skel == tracker.skeleton() &&
      sorted_sets(base_scc.components) ==
          sorted_sets(tracker.current_scc().components) &&
      sorted_sets(base_roots) ==
          sorted_sets(tracker.current_root_components());
  return row;
}

struct InternRow {
  std::string adversary;
  ProcId n = 0;
  Round rounds = 0;
  std::int64_t private_ns = 0;
  std::int64_t shared_ns = 0;
  double speedup = 0.0;
  bool match = true;
  InternStats stats;
};

/// Shared-vs-private skeleton analytics over the same materialized
/// skeleton sequence. Every round, all n processes need their Line-25
/// keep set and Line-28 strong-connectivity verdict on their (common)
/// skeleton approximation:
///   private — each process re-derives both from scratch (a backward
///             BFS plus a Tarjan pass on the pruned graph), n times;
///   shared  — each process keeps a captured structure and resolves
///             changes through one StructureInternTable, so an
///             unchanged round costs one structure compare per
///             process and a changed round pays the analytics once
///             for all n.
/// Both loops record their answers; `match` demands bit-equality.
InternRow run_intern_pair(const std::string& adversary,
                          const std::vector<Digraph>& skeletons) {
  using Clock = std::chrono::steady_clock;
  InternRow row;
  row.adversary = adversary;
  row.n = skeletons.front().n();
  row.rounds = static_cast<Round>(skeletons.size());
  const ProcId n = row.n;

  std::vector<ProcSet> private_keep;
  std::vector<char> private_sc;
  const auto private_start = Clock::now();
  for (const Digraph& skel : skeletons) {
    private_keep.clear();
    private_sc.clear();
    for (ProcId p : skel.nodes()) {
      ProcSet keep = reaching(skel, p);
      private_sc.push_back(
          is_strongly_connected(skel.induced(keep)) ? 1 : 0);
      private_keep.push_back(std::move(keep));
    }
  }
  row.private_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - private_start)
                       .count();

  StructureInternTable table;
  struct Cached {
    Digraph captured;
    ProcSet keep;
    bool sc = false;
    bool valid = false;
  };
  std::vector<Cached> cache(static_cast<std::size_t>(n));
  std::vector<ProcSet> shared_keep;
  std::vector<char> shared_sc;
  const auto shared_start = Clock::now();
  for (const Digraph& skel : skeletons) {
    shared_keep.clear();
    shared_sc.clear();
    for (ProcId p : skel.nodes()) {
      Cached& c = cache[static_cast<std::size_t>(p)];
      if (!c.valid || !(c.captured == skel)) {
        c.captured = skel;
        InternedStructure* entry = table.intern(skel);
        c.keep = entry->keep_set(p);
        c.sc = entry->pruned_strongly_connected(p);
        c.valid = true;
      }
      shared_keep.push_back(c.keep);
      shared_sc.push_back(c.sc ? 1 : 0);
    }
  }
  row.shared_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - shared_start)
                      .count();

  // The recorded vectors hold the *last* round's answers on both
  // sides; earlier rounds were checked by construction of the same
  // loop (kept cheap — the full per-round history at n = 512 would
  // dwarf the timed work).
  row.match = private_keep == shared_keep && private_sc == shared_sc;
  row.speedup = row.shared_ns > 0 ? static_cast<double>(row.private_ns) /
                                        static_cast<double>(row.shared_ns)
                                  : 0.0;
  row.stats = table.stats();
  return row;
}

/// Skeleton sequence of a run: G∩1 ... G∩rounds (self-loop closed).
std::vector<Digraph> skeleton_sequence(GraphSource& source, Round rounds) {
  const ProcId n = source.n();
  std::vector<Digraph> seq;
  Digraph skel = Digraph::complete(n);
  for (Round r = 1; r <= rounds; ++r) {
    Digraph g(n);
    source.graph_into(r, g);
    g.add_self_loops();
    skel.intersect_with(g);
    seq.push_back(skel);
  }
  return seq;
}

}  // namespace

int main() {
  using namespace sskel;
  std::cout << "==============================================\n"
            << " E2: Theorem 1 — at most k root components /\n"
            << "     at most k decision values under Psrcs(k)\n"
            << "==============================================\n\n";

  struct Row {
    ProcId n;
    int k;
    int j;
  };
  const std::vector<Row> rows = {
      {6, 1, 1},  {6, 2, 2},  {8, 2, 2},  {8, 3, 3},  {12, 3, 2},
      {12, 4, 4}, {16, 2, 2}, {16, 5, 5}, {24, 3, 3}, {32, 4, 4},
      {48, 6, 6}, {64, 4, 4},
  };
  const bool smoke = std::getenv("SSKEL_SMOKE") != nullptr;
  const int trials = smoke ? 10 : 100;

  BenchJson json("theorem1");
  Table table("root components and decision values vs k (100 trials/row)",
              {"n", "k", "j", "roots mean", "roots max", "values mean",
               "values max", "values hist", "agree viol", "root>k viol"});
  bool all_ok = true;
  for (const Row& row : rows) {
    RandomPsrcsParams params;
    params.n = row.n;
    params.k = row.k;
    params.root_components = row.j;
    params.stabilization_round = 3;
    params.noise_probability = 0.3;
    KSetRunConfig config;
    config.k = row.k;
    const RandomPsrcsScenario scenario(params);
    McTilePlane plane(scenario);
    const McSummary s = plane.run(0xE2, trials, config);

    const std::int64_t root_viol =
        s.root_histogram.max_value() > row.k ? 1 : 0;
    all_ok = all_ok && s.agreement_violations == 0 && root_viol == 0 &&
             s.undecided_runs == 0;
    table.add_row({cell(row.n), cell(row.k), cell(row.j),
                   cell(s.root_components.mean(), 2),
                   cell(s.root_components.max(), 0),
                   cell(s.distinct_values.mean(), 2),
                   cell(s.distinct_values.max(), 0),
                   s.distinct_histogram.to_string(),
                   cell(s.agreement_violations), cell(root_viol)});

    // Psrcs(k) decision cost on this row's stable skeleton: the
    // branch-and-bound checker must agree with the brute-force
    // enumeration while visiting fewer subsets.
    // (the C(n, k+1) baseline is only affordable on the smaller rows;
    // -1 marks rows where it was skipped).
    RandomPsrcsSource source(0xE2, params);
    const Digraph& skel = source.stable_skeleton();
    const PsrcsCheck pruned = check_psrcs_exact(skel, row.k);
    std::int64_t brute_subsets = -1;
    if (row.n <= 32) {
      const PsrcsCheck brute = oracles::check_psrcs_bruteforce(skel, row.k);
      brute_subsets = brute.subsets_checked;
      all_ok = all_ok && pruned.holds == brute.holds;
    }
    json.add("theorem1_row")
        .set("n", row.n)
        .set("k", row.k)
        .set("j", row.j)
        .set("trials", trials)
        .set("roots_mean", s.root_components.mean())
        .set("roots_max", s.root_components.max())
        .set("values_mean", s.distinct_values.mean())
        .set("values_max", s.distinct_values.max())
        .set("agreement_violations", s.agreement_violations)
        .set("root_bound_violations", root_viol)
        .set("psrcs_holds", static_cast<std::int64_t>(pruned.holds))
        .set("subsets_visited_pruned", pruned.subsets_checked)
        .set("subsets_visited_bruteforce", brute_subsets);
  }
  table.print(std::cout);

  // --- incremental SCC maintenance vs per-bump Tarjan rerun ---------------
  //
  // Shrink-heavy adversaries at large n, where rerunning Tarjan on
  // every skeleton change dominates a monitoring loop. The partition
  // source with heavy cross-block noise decays over ~hundreds of
  // rounds (a cross edge survives round r with probability p, so the
  // skeleton keeps shrinking until p^r * #cross-pairs < 1); the
  // rotating star collapses in a handful of bumps and exercises the
  // mostly-stable path. Both loops replay the identical deterministic
  // graph sequence and the final decompositions must agree.
  Table inc_table("incremental SCC vs per-bump Tarjan (shrink-heavy runs)",
                  {"adversary", "n", "rounds", "bumps", "tarjan ms",
                   "incremental ms", "speedup", "match"});
  const std::vector<ProcId> inc_sizes = {64, 128, 256, 512};
  for (const ProcId n : inc_sizes) {
    for (const bool partition : {false, true}) {
      IncSccRow r;
      if (partition) {
        PartitionParams params;
        params.blocks = even_blocks(n, 4);
        params.cross_noise_probability = 0.95;
        const Round rounds = smoke ? 80 : 300;
        params.stabilization_round = rounds;  // noise through the whole run
        PartitionSource source(0x1C5, params);
        r = run_inc_scc_pair("partition", source, rounds);
      } else {
        const auto source = make_rotating_star_source(n);
        r = run_inc_scc_pair("rotating", *source,
                             smoke ? 32 : static_cast<Round>(n));
      }
      all_ok = all_ok && r.decompositions_match;
      // The headline gate: on the shrink-heavy partition decay at
      // large n the incremental maintainer must beat the per-bump
      // Tarjan rerun by >= 5x. Rotating rows are reported, not gated
      // (they collapse after a few bumps, so both loops are cheap),
      // and smoke runs are too short for stable timing.
      const bool gated = partition && n >= 256 && !smoke;
      if (gated && r.speedup < 5.0) {
        std::cerr << "inc-scc gate FAILED: " << r.adversary << " n=" << n
                  << " speedup " << r.speedup << " < 5.0\n";
        all_ok = false;
      }
      // Sampled Psrcs screen on the large final skeleton (exact search
      // is unaffordable at these n): record the verdict with its
      // certification status and confidence instead of a bare bool.
      Rng screen_rng(mix_seed(0x5C4EE4, static_cast<std::uint64_t>(n)));
      PartitionParams screen_params;
      screen_params.blocks = even_blocks(n, 4);
      const PartitionSource screen_source(0x1C5, screen_params);
      const int screen_k = 4;
      // Partition skeleton: Psrcs(4) holds (4 blocks), so the sampled
      // pass must come back uncertified with an honest confidence.
      // Rotating skeleton: bare self-loops, every sample is a
      // violation, so the verdict is a certified refutation.
      const PsrcsCheck sampled = check_psrcs_sampled(
          partition ? screen_source.stable_skeleton()
                    : Digraph::self_loops_only(n),
          screen_k, smoke ? 50 : 500, screen_rng);

      inc_table.add_row(
          {r.adversary, cell(r.n), cell(static_cast<std::int64_t>(r.rounds)),
           cell(r.bumps), cell(static_cast<double>(r.tarjan_ns) / 1e6, 2),
           cell(static_cast<double>(r.incremental_ns) / 1e6, 2),
           cell(r.speedup, 1), r.decompositions_match ? "yes" : "NO"});
      json.add("inc_scc_row")
          .set("adversary", r.adversary)
          .set("n", r.n)
          .set("rounds", static_cast<std::int64_t>(r.rounds))
          .set("bumps", r.bumps)
          .set("tarjan_ns", r.tarjan_ns)
          .set("incremental_ns", r.incremental_ns)
          .set("speedup", r.speedup)
          .set("decompositions_match",
               static_cast<std::int64_t>(r.decompositions_match))
          .set("gated", static_cast<std::int64_t>(gated))
          .set("psrcs_sampled_k", screen_k)
          .set("psrcs_sampled_holds", static_cast<std::int64_t>(sampled.holds))
          .set("psrcs_sampled_certified",
               static_cast<std::int64_t>(sampled.certified))
          .set("psrcs_sampled_confidence", sampled.confidence);
    }
  }
  inc_table.print(std::cout);

  // --- shared vs private skeleton analytics (structure interning) ---------
  //
  // The post-stabilization all-converged case: all n processes hold
  // the same stable skeleton, so the intern table collapses n
  // identical Line-25/Line-28 derivations per round into one. The
  // stable adversary (structure never changes after stabilization) is
  // the headline ≥ 5x gate at n >= 256; the rotating star changes
  // structure every round and is reported ungated (it exercises the
  // miss/rehash path, where sharing still wins n-fold per structure).
  Table intern_table(
      "shared vs private skeleton analytics (structure interning)",
      {"adversary", "n", "rounds", "private ms", "shared ms", "speedup",
       "hits", "misses", "match"});
  const std::vector<ProcId> intern_sizes = {64, 256, 512};
  const Round intern_rounds = smoke ? 6 : 16;
  for (const ProcId n : intern_sizes) {
    for (const bool rotating : {false, true}) {
      std::vector<Digraph> seq;
      std::string adversary;
      if (rotating) {
        adversary = "rotating";
        const auto source = make_rotating_star_source(n);
        seq = skeleton_sequence(*source, intern_rounds);
      } else {
        adversary = "stable";
        RandomPsrcsParams params;
        params.n = n;
        params.k = 2;
        params.root_components = 2;
        RandomPsrcsSource source(0x1A7E, params);
        // Post-stabilization rounds: the skeleton is the stable
        // skeleton from round 1 on and never changes.
        seq.assign(static_cast<std::size_t>(intern_rounds),
                   source.stable_skeleton());
      }
      const InternRow r = run_intern_pair(adversary, seq);
      all_ok = all_ok && r.match;
      const bool gated = !rotating && n >= 256 && !smoke;
      if (gated && r.speedup < 5.0) {
        std::cerr << "intern gate FAILED: " << r.adversary << " n=" << n
                  << " speedup " << r.speedup << " < 5.0\n";
        all_ok = false;
      }
      if (!r.match) {
        std::cerr << "intern MISMATCH: " << r.adversary << " n=" << n
                  << " shared analytics differ from private baseline\n";
      }
      intern_table.add_row(
          {r.adversary, cell(r.n), cell(static_cast<std::int64_t>(r.rounds)),
           cell(static_cast<double>(r.private_ns) / 1e6, 2),
           cell(static_cast<double>(r.shared_ns) / 1e6, 2),
           cell(r.speedup, 1), cell(r.stats.hits), cell(r.stats.misses),
           r.match ? "yes" : "NO"});
      json.add("intern_row")
          .set("adversary", r.adversary)
          .set("n", r.n)
          .set("rounds", static_cast<std::int64_t>(r.rounds))
          .set("private_ns", r.private_ns)
          .set("shared_ns", r.shared_ns)
          .set("speedup", r.speedup)
          .set("gated", static_cast<std::int64_t>(gated))
          .set("match", static_cast<std::int64_t>(r.match))
          .set("intern_hits", r.stats.hits)
          .set("intern_misses", r.stats.misses)
          .set("intern_fingerprint_collisions", r.stats.fingerprint_collisions)
          .set("intern_entries", r.stats.entries)
          .set("intern_scc_computes", r.stats.scc_computes)
          .set("intern_keep_computes", r.stats.keep_computes);
    }
  }
  intern_table.print(std::cout);

  // End-to-end tripwire: a full Algorithm 1 run (lemma monitor
  // attached) with the intern table wired in must produce the same
  // decisions, decision rounds, and lemma verdicts as the uninterned
  // run — the table is a cache, never a semantics change.
  {
    RandomPsrcsParams params;
    params.n = 64;
    params.k = 3;
    params.root_components = 3;
    params.stabilization_round = 3;
    KSetRunConfig run_config;
    run_config.k = 3;
    run_config.attach_lemma_monitor = true;
    run_config.tail_rounds = 4;
    RandomPsrcsSource private_source(0xE2E2, params);
    const KSetRunReport private_report =
        run_kset(private_source, run_config);
    InternDomain domain;
    run_config.intern = &domain;
    RandomPsrcsSource interned_source(0xE2E2, params);
    const KSetRunReport interned_report =
        run_kset(interned_source, run_config);
    bool equal = private_report.outcomes.size() ==
                     interned_report.outcomes.size() &&
                 private_report.paths == interned_report.paths &&
                 private_report.lemma_violations ==
                     interned_report.lemma_violations &&
                 private_report.final_skeleton ==
                     interned_report.final_skeleton;
    for (std::size_t p = 0; equal && p < private_report.outcomes.size();
         ++p) {
      equal = private_report.outcomes[p].decided ==
                  interned_report.outcomes[p].decided &&
              private_report.outcomes[p].decision ==
                  interned_report.outcomes[p].decision &&
              private_report.outcomes[p].decision_round ==
                  interned_report.outcomes[p].decision_round;
    }
    if (!equal) {
      std::cerr << "intern run-equivalence FAILED: interned run diverged "
                   "from the private baseline\n";
      all_ok = false;
    }
    std::cout << "\nintern run-equivalence (n=64, k=3, lemma monitor): "
              << (equal ? "decisions and lemma verdicts bit-equal\n"
                        : "MISMATCH\n");
    const InternStats run_stats = domain.merged_stats();
    json.add("intern_run_equivalence")
        .set("n", static_cast<std::int64_t>(params.n))
        .set("k", params.k)
        .set("match", static_cast<std::int64_t>(equal))
        .set("intern_hits", run_stats.hits)
        .set("intern_misses", run_stats.misses)
        .set("intern_fingerprint_collisions",
             run_stats.fingerprint_collisions)
        .set("intern_entries", run_stats.entries);
  }

  const char* path_env = std::getenv("SSKEL_BENCH_JSON");
  const std::string path =
      path_env != nullptr ? path_env : "BENCH_theorem1.json";
  if (json.write_file(path)) {
    std::cout << "wrote " << path << '\n';
  } else {
    std::cerr << "warning: could not write " << path << '\n';
  }
  std::cout << (all_ok ? "RESULT: Theorem 1 bound held in every trial.\n"
                       : "RESULT: VIOLATIONS FOUND (see table).\n");
  return all_ok ? 0 : 1;
}
