// E9 — microbenchmarks (google-benchmark): the graph and skeleton
// kernels that dominate simulation cost, plus end-to-end round
// throughput of Algorithm 1.
//
// Besides the console table, the binary writes BENCH_micro.json
// (machine-readable records: op, n, k, ns/op, counters) for CI
// artifacts and regression tracking. SSKEL_SMOKE=1 shrinks
// per-benchmark min time so the whole suite finishes in seconds;
// SSKEL_BENCH_JSON overrides the output path.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "adversary/partition.hpp"
#include "adversary/random_psrcs.hpp"
#include "graph/inc_scc.hpp"
#include "graph/reach.hpp"
#include "graph/scc.hpp"
#include "skeleton/intern.hpp"
#include "kset/runner.hpp"
#include "kset/skeleton_kset.hpp"
#include "oracles/dense_kset.hpp"
#include "oracles/psrcs_bruteforce.hpp"
#include "predicates/analysis.hpp"
#include "predicates/psrcs.hpp"
#include "rounds/simulator.hpp"
#include "skeleton/codec.hpp"
#include "skeleton/tracker.hpp"
#include "util/bench_json.hpp"
#include "util/rng.hpp"

namespace {

using namespace sskel;

Digraph random_digraph(ProcId n, double density, std::uint64_t seed) {
  Rng rng(seed);
  Digraph g(n);
  g.add_self_loops();
  for (ProcId q = 0; q < n; ++q) {
    for (ProcId p = 0; p < n; ++p) {
      if (q != p && rng.next_bool(density)) g.add_edge(q, p);
    }
  }
  return g;
}

LabeledDigraph random_labeled(ProcId n, double density, std::uint64_t seed) {
  Rng rng(seed);
  LabeledDigraph g(n, 0);
  for (ProcId q = 0; q < n; ++q) {
    for (ProcId p = 0; p < n; ++p) {
      if (rng.next_bool(density)) {
        g.set_edge(q, p, static_cast<Round>(1 + rng.next_below(64)));
      }
    }
  }
  return g;
}

void BM_SccDecomposition(benchmark::State& state) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  const Digraph g = random_digraph(n, 4.0 / static_cast<double>(n), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(strongly_connected_components(g));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SccDecomposition)->Range(8, 512)->Complexity();

void BM_RootComponents(benchmark::State& state) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  const Digraph g = random_digraph(n, 4.0 / static_cast<double>(n), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(root_components(g));
  }
}
BENCHMARK(BM_RootComponents)->Range(8, 512);

void BM_SkeletonIntersect(benchmark::State& state) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  const Digraph g = random_digraph(n, 0.5, 3);
  for (auto _ : state) {
    Digraph skel = Digraph::complete(n);
    skel.intersect_with(g);
    benchmark::DoNotOptimize(skel);
  }
}
BENCHMARK(BM_SkeletonIntersect)->Range(8, 512);

void BM_ApproxMergeMax(benchmark::State& state) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  const LabeledDigraph a = random_labeled(n, 0.3, 4);
  const LabeledDigraph b = random_labeled(n, 0.3, 5);
  for (auto _ : state) {
    LabeledDigraph merged = a;
    oracles::merge_max(merged, b);
    benchmark::DoNotOptimize(merged);
  }
}
BENCHMARK(BM_ApproxMergeMax)->Range(8, 256);

void BM_PruneNotReaching(benchmark::State& state) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  const LabeledDigraph g = random_labeled(n, 0.1, 6);
  for (auto _ : state) {
    LabeledDigraph pruned = g;
    oracles::prune_not_reaching(pruned, 0);
    benchmark::DoNotOptimize(pruned);
  }
}
BENCHMARK(BM_PruneNotReaching)->Range(8, 256);

void BM_StronglyConnectedCheck(benchmark::State& state) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  const LabeledDigraph g = random_labeled(n, 0.2, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.strongly_connected());
  }
}
BENCHMARK(BM_StronglyConnectedCheck)->Range(8, 256);

void BM_CodecEncode(benchmark::State& state) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  const LabeledDigraph g = random_labeled(n, 0.3, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_graph(g));
  }
  state.SetBytesProcessed(state.iterations() * encoded_graph_size(g));
}
BENCHMARK(BM_CodecEncode)->Range(8, 256);

void BM_CodecRoundTrip(benchmark::State& state) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  const LabeledDigraph g = random_labeled(n, 0.3, 9);
  const auto bytes = encode_graph(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_graph(bytes));
  }
}
BENCHMARK(BM_CodecRoundTrip)->Range(8, 256);

/// Per-round skeleton analytics on a post-stabilization round,
/// recomputed from scratch every time — the pre-caching behavior:
/// SCC decomposition, root components, and the exact Psrcs(k) check
/// all rerun although the skeleton did not change.
void BM_PostStabilizationAnalytics_Fresh(benchmark::State& state) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  RandomPsrcsParams params;
  params.n = n;
  params.k = 3;
  params.root_components = 3;
  RandomPsrcsSource source(21, params);
  SkeletonTracker tracker(n);
  Round r = 1;
  tracker.observe(r, source.stable_skeleton());
  for (auto _ : state) {
    ++r;
    tracker.observe(r, source.stable_skeleton());
    benchmark::DoNotOptimize(
        strongly_connected_components(tracker.skeleton()));
    benchmark::DoNotOptimize(root_components(tracker.skeleton()));
    benchmark::DoNotOptimize(check_psrcs_exact(tracker.skeleton(), 3));
  }
}
BENCHMARK(BM_PostStabilizationAnalytics_Fresh)->Range(16, 256);

/// The same post-stabilization round through the version-stamped
/// caches: observe() detects that the intersection removed nothing,
/// so every analytics read is a cache hit. The acceptance bar is a
/// >= 10x ratio against the _Fresh variant.
void BM_PostStabilizationAnalytics_Cached(benchmark::State& state) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  RandomPsrcsParams params;
  params.n = n;
  params.k = 3;
  params.root_components = 3;
  RandomPsrcsSource source(21, params);
  SkeletonTracker tracker(n);
  SkeletonPredicateCache cache;
  Round r = 1;
  tracker.observe(r, source.stable_skeleton());
  for (auto _ : state) {
    ++r;
    tracker.observe(r, source.stable_skeleton());
    benchmark::DoNotOptimize(&tracker.current_scc());
    benchmark::DoNotOptimize(&tracker.current_root_components());
    benchmark::DoNotOptimize(
        &cache.psrcs_exact(tracker.skeleton(), tracker.version(), 3));
  }
}
BENCHMARK(BM_PostStabilizationAnalytics_Cached)->Range(16, 256);

/// A shrink-heavy skeleton run, SCC analytics recomputed with a full
/// Tarjan + root scan after every skeleton change. The graph sequence
/// (partition decay: 4 blocks, heavy transient cross noise) is
/// precomputed outside the timed loop, so the measurement isolates
/// intersection + analytics cost.
void BM_SccShrinkTarjanRerun(benchmark::State& state) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  PartitionParams params;
  params.blocks = even_blocks(n, 4);
  params.cross_noise_probability = 0.9;
  const Round rounds = 60;
  params.stabilization_round = rounds;
  PartitionSource source(23, params);
  std::vector<Digraph> sequence;
  for (Round r = 1; r <= rounds; ++r) {
    // graph_into reuses one graph's rows and never assumes a payload
    // layout, so the materialized sequence is representation-agnostic
    // (dense or tiered ProcSet rows alike).
    Digraph g(n);
    source.graph_into(r, g);
    g.add_self_loops();
    sequence.push_back(std::move(g));
  }
  for (auto _ : state) {
    Digraph skel = Digraph::complete(n);
    for (const Digraph& g : sequence) {
      if (skel.intersect_with(g)) {
        const SccDecomposition scc = strongly_connected_components(skel);
        benchmark::DoNotOptimize(root_component_indices(skel, scc));
        benchmark::DoNotOptimize(&scc);
      }
    }
    benchmark::DoNotOptimize(skel);
  }
  state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_SccShrinkTarjanRerun)->Range(64, 512);

/// The same precomputed shrink-heavy sequence through the tracker's
/// decremental SCC maintainer: each change is consumed as a removal
/// delta and only the touched components are re-decomposed.
void BM_SccShrinkIncremental(benchmark::State& state) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  PartitionParams params;
  params.blocks = even_blocks(n, 4);
  params.cross_noise_probability = 0.9;
  const Round rounds = 60;
  params.stabilization_round = rounds;
  PartitionSource source(23, params);
  std::vector<Digraph> sequence;
  for (Round r = 1; r <= rounds; ++r) {
    // graph_into reuses one graph's rows and never assumes a payload
    // layout, so the materialized sequence is representation-agnostic
    // (dense or tiered ProcSet rows alike).
    Digraph g(n);
    source.graph_into(r, g);
    g.add_self_loops();
    sequence.push_back(std::move(g));
  }
  for (auto _ : state) {
    SkeletonTracker tracker(n);
    (void)tracker.current_scc();  // seed the maintainer
    Round r = 0;
    for (const Digraph& g : sequence) {
      tracker.observe(++r, g);
      benchmark::DoNotOptimize(&tracker.current_scc());
      benchmark::DoNotOptimize(&tracker.current_root_components());
    }
  }
  state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_SccShrinkIncremental)->Range(64, 512);

/// The post-stabilization all-converged case with *private* analytics:
/// all n processes hold the same stable skeleton, and each one
/// re-derives its Line-25 keep set and Line-28 verdict from scratch
/// every round (one backward BFS plus a Tarjan pass on the pruned
/// graph per process) — n copies of identical work.
void BM_InternResolveConverged_Private(benchmark::State& state) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  RandomPsrcsParams params;
  params.n = n;
  params.k = 2;
  params.root_components = 2;
  RandomPsrcsSource source(31, params);
  const Digraph& skel = source.stable_skeleton();
  for (auto _ : state) {
    for (ProcId p : skel.nodes()) {
      const ProcSet keep = reaching(skel, p);
      benchmark::DoNotOptimize(is_strongly_connected(skel.induced(keep)));
    }
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_InternResolveConverged_Private)->Arg(64)->Arg(256)->Arg(512);

/// The same converged round through the structure intern table
/// (DESIGN.md §10): each process keeps a captured structure plus the
/// answers resolved through the shared entry, so an unchanged round
/// costs one word-level structure compare per process and zero graph
/// analytics — the analytics ran once, for the first resolver.
void BM_InternResolveConverged_Shared(benchmark::State& state) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  RandomPsrcsParams params;
  params.n = n;
  params.k = 2;
  params.root_components = 2;
  RandomPsrcsSource source(31, params);
  const Digraph& skel = source.stable_skeleton();

  StructureInternTable table;
  struct Cached {
    Digraph captured;
    ProcSet keep;
    bool sc = false;
    bool valid = false;
  };
  std::vector<Cached> cache(static_cast<std::size_t>(n));
  std::int64_t mismatches = 0;
  for (auto _ : state) {
    for (ProcId p : skel.nodes()) {
      Cached& c = cache[static_cast<std::size_t>(p)];
      if (!c.valid || !(c.captured == skel)) {
        c.captured = skel;
        InternedStructure* entry = table.intern(skel);
        c.keep = entry->keep_set(p);
        c.sc = entry->pruned_strongly_connected(p);
        c.valid = true;
      }
      benchmark::DoNotOptimize(c.keep);
      benchmark::DoNotOptimize(c.sc);
    }
  }
  // Correctness tripwire, outside the timed loop: the shared answers
  // must match the private computation bit for bit.
  for (ProcId p : skel.nodes()) {
    const Cached& c = cache[static_cast<std::size_t>(p)];
    const ProcSet keep = reaching(skel, p);
    if (c.keep != keep ||
        c.sc != is_strongly_connected(skel.induced(keep))) {
      ++mismatches;
    }
  }
  const InternStats stats = table.stats();
  state.counters["intern_hits"] = static_cast<double>(stats.hits);
  state.counters["intern_misses"] = static_cast<double>(stats.misses);
  state.counters["intern_fingerprint_collisions"] =
      static_cast<double>(stats.fingerprint_collisions);
  state.counters["intern_keep_computes"] =
      static_cast<double>(stats.keep_computes);
  state.counters["intern_mismatches"] = static_cast<double>(mismatches);
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_InternResolveConverged_Shared)->Arg(64)->Arg(256)->Arg(512);

/// A large SCC (ring + chords) losing one chord per apply(). With the
/// targeted fast path each deletion is decided by a single masked BFS
/// ("does the tail still reach the head?"); without it every deletion
/// re-runs the full local FW-BW decomposition. Seeding happens outside
/// the timed region so the pair isolates apply() cost.
void run_scc_shrink_single_edge(benchmark::State& state, bool fastpath) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  Digraph base(n);
  for (ProcId p = 0; p < n; ++p) base.add_edge(p, (p + 1) % n);
  Rng rng(41);
  std::vector<std::pair<ProcId, ProcId>> chords;
  while (chords.size() < 64) {
    const ProcId u = static_cast<ProcId>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    const ProcId v = static_cast<ProcId>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    if (u == v || v == (u + 1) % n || base.has_edge(u, v)) continue;
    base.add_edge(u, v);
    chords.push_back({u, v});
  }
  std::int64_t hits = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Digraph g = base;
    IncrementalScc inc;
    inc.set_single_edge_fastpath(fastpath);
    inc.seed(g);
    state.ResumeTiming();
    for (const auto& [u, v] : chords) {
      GraphDelta delta;
      delta.removed_edges.push_back({u, v});
      g.remove_edge(u, v);
      inc.apply(g, delta);
    }
    benchmark::DoNotOptimize(inc.decomposition().count());
    hits = inc.targeted_hits();
  }
  state.counters["targeted_hits"] = static_cast<double>(hits);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(chords.size()));
}

void BM_SccShrinkSingleEdge_Fastpath(benchmark::State& state) {
  run_scc_shrink_single_edge(state, true);
}
BENCHMARK(BM_SccShrinkSingleEdge_Fastpath)->Arg(256)->Arg(512);

void BM_SccShrinkSingleEdge_Full(benchmark::State& state) {
  run_scc_shrink_single_edge(state, false);
}
BENCHMARK(BM_SccShrinkSingleEdge_Full)->Arg(256)->Arg(512);

/// Branch-and-bound Psrcs(k) decision on the stable skeleton of a
/// random Psrcs(k) adversary (the predicate holds, so the search must
/// exhaust its pruned space — the worst case). Counters export the
/// subsets visited so BENCH_micro.json records the pruning factor
/// against the brute-force baseline below.
void BM_PsrcsExactPruned(benchmark::State& state) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  RandomPsrcsParams params;
  params.n = n;
  params.k = k;
  params.root_components = k;
  RandomPsrcsSource source(22, params);
  const Digraph& skel = source.stable_skeleton();
  std::int64_t subsets = 0;
  for (auto _ : state) {
    const PsrcsCheck check = check_psrcs_exact(skel, k);
    subsets = check.subsets_checked;
    benchmark::DoNotOptimize(check.holds);
  }
  state.counters["subsets_visited"] = static_cast<double>(subsets);
}
BENCHMARK(BM_PsrcsExactPruned)->Args({16, 3})->Args({20, 4})->Args({24, 3});

/// The literal C(n, k+1) enumeration (the test oracle) on the same
/// instances.
void BM_PsrcsBruteforce(benchmark::State& state) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  RandomPsrcsParams params;
  params.n = n;
  params.k = k;
  params.root_components = k;
  RandomPsrcsSource source(22, params);
  const Digraph& skel = source.stable_skeleton();
  std::int64_t subsets = 0;
  for (auto _ : state) {
    const PsrcsCheck check = oracles::check_psrcs_bruteforce(skel, k);
    subsets = check.subsets_checked;
    benchmark::DoNotOptimize(check.holds);
  }
  state.counters["subsets_visited"] = static_cast<double>(subsets);
}
BENCHMARK(BM_PsrcsBruteforce)->Args({16, 3})->Args({20, 4})->Args({24, 3});

/// Per-layer: adversary graph_into for perfbench's `consensus`
/// adversary (random Psrcs, k = roots = max core = 4, noise 0.25): the
/// stable skeleton copied into a reused graph plus the noise kernel
/// (adversary/noise.hpp). Every round after round 1 carries noise.
void BM_GraphIntoRandomPsrcs(benchmark::State& state) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  RandomPsrcsParams params;
  params.n = n;
  params.k = 4;
  params.root_components = 4;
  params.max_core_size = 4;
  params.noise_probability = 0.25;
  RandomPsrcsSource source(101, params);
  Digraph g(n);
  Round i = 0;
  for (auto _ : state) {
    source.graph_into(2 + i++ % 64, g);
    benchmark::DoNotOptimize(g);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_GraphIntoRandomPsrcs)->Arg(64)->Arg(512);

/// Per-layer: graph_into for perfbench's `fleet` adversary, a
/// partition of n = 4 into m = 2 blocks (the record's "k") with cross
/// noise 0.3 until round 3; the loop alternates the two noisy rounds.
void BM_GraphIntoPartition(benchmark::State& state) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  PartitionParams params;
  params.blocks = even_blocks(n, static_cast<int>(state.range(1)));
  params.cross_noise_probability = 0.3;
  params.stabilization_round = 3;
  PartitionSource source(101, std::move(params));
  Digraph g(n);
  Round i = 0;
  for (auto _ : state) {
    source.graph_into(1 + i++ % 2, g);
    benchmark::DoNotOptimize(g);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_GraphIntoPartition)->Args({4, 2});

/// End-to-end: one full round of Algorithm 1 for n processes on a
/// stable hub topology (send + deliver + transition for all n).
void BM_AlgorithmOneRound(benchmark::State& state) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  RandomPsrcsParams params;
  params.n = n;
  params.k = 2;
  params.root_components = 2;
  params.noise_probability = 0.2;
  RandomPsrcsSource source(10, params);
  std::vector<std::unique_ptr<Algorithm<SkeletonMessage>>> procs;
  for (ProcId p = 0; p < n; ++p) {
    procs.push_back(std::make_unique<SkeletonKSetProcess>(n, p, p + 1));
  }
  Simulator<SkeletonMessage> sim(source, std::move(procs));
  for (auto _ : state) {
    sim.step();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_AlgorithmOneRound)->Range(4, 128);

/// Whole-run throughput: a complete k-set agreement instance.
void BM_FullRun(benchmark::State& state) {
  const ProcId n = static_cast<ProcId>(state.range(0));
  RandomPsrcsParams params;
  params.n = n;
  params.k = 2;
  params.root_components = 2;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    RandomPsrcsSource source(mix_seed(11, seed++), params);
    KSetRunConfig config;
    config.k = 2;
    benchmark::DoNotOptimize(run_kset(source, config));
  }
}
BENCHMARK(BM_FullRun)->Range(4, 64);

/// Console output as usual, plus a capture of every per-iteration run
/// for the BENCH_micro.json dump (aggregates and complexity fits are
/// console-only).
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    ConsoleReporter::ReportRuns(report);
    for (const Run& run : report) {
      if (run.run_type != Run::RT_Iteration) continue;
      if (run.report_big_o || run.report_rms || run.error_occurred) continue;
      runs_.push_back(run);
    }
  }

  [[nodiscard]] const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

/// "BM_Name/16/3" -> op "BM_Name", args {16, 3} (n, then k when
/// present). Non-numeric path components are ignored.
void append_record(BenchJson& json, const JsonCaptureReporter::Run& run) {
  const std::string name = run.benchmark_name();
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= name.size()) {
    const std::size_t slash = name.find('/', start);
    if (slash == std::string::npos) {
      parts.push_back(name.substr(start));
      break;
    }
    parts.push_back(name.substr(start, slash - start));
    start = slash + 1;
  }
  BenchRecord& rec = json.add(parts.empty() ? name : parts[0]);
  std::vector<std::int64_t> args;
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const std::string& p = parts[i];
    if (p.empty() ||
        !std::all_of(p.begin(), p.end(),
                     [](unsigned char c) { return std::isdigit(c); })) {
      continue;
    }
    args.push_back(std::stoll(p));
  }
  if (!args.empty()) rec.set("n", args[0]);
  if (args.size() > 1) rec.set("k", args[1]);
  rec.set("ns_per_op", run.GetAdjustedRealTime());
  rec.set("iterations", static_cast<std::int64_t>(run.iterations));
  for (const auto& [key, counter] : run.counters) {
    rec.set(key, counter.value);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  // Smoke mode (CI): cut per-benchmark min time so the suite runs in
  // seconds; the numbers are indicative, the JSON schema identical.
  std::string min_time = "--benchmark_min_time=0.01";
  if (std::getenv("SSKEL_SMOKE") != nullptr) {
    args.push_back(min_time.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }

  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  BenchJson json("micro");
  for (const auto& run : reporter.runs()) append_record(json, run);
  const char* path_env = std::getenv("SSKEL_BENCH_JSON");
  const std::string path = path_env != nullptr ? path_env : "BENCH_micro.json";
  if (json.write_file(path)) {
    std::cout << "\nwrote " << path << " (" << reporter.runs().size()
              << " records)\n";
  } else {
    std::cerr << "\nwarning: could not write " << path << '\n';
  }
  benchmark::Shutdown();
  return 0;
}
