// sskel — the command-line face of libsskel. It reads and writes SSKT
// captures (DESIGN.md §14), the one run-capture format.
//
//   sskel run        run Algorithm 1 on a chosen adversary, optionally
//                    recording the run as an SSKT capture
//   sskel replay     re-run a capture's graphs bit-exactly on the
//                    Simulator (any SSKT capture, simulator or network)
//   sskel analyze    profile a capture's skeleton: root components,
//                    minimal k with Psrcs(k), Theorem 1 consistency
//   sskel dump       pretty-print a capture; on rejection, print where
//                    and why (status, byte offset, field), so a fuzzer
//                    artifact or a truncated CI upload explains itself
//   sskel make-seed  write fuzz-corpus seeds
//
// Examples:
//   sskel run --adversary=random --n=10 --k=3 --seed=4 --record=run.sskt
//   sskel replay --file=run.sskt --k=3
//   sskel analyze --file=run.sskt
//   sskel run --adversary=impossibility --n=8 --k=4
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "adversary/eventual.hpp"
#include "adversary/figure1.hpp"
#include "adversary/impossibility.hpp"
#include "adversary/partition.hpp"
#include "adversary/random_psrcs.hpp"
#include "graph/scc.hpp"
#include "kset/runner.hpp"
#include "predicates/analysis.hpp"
#include "predicates/psrcs.hpp"
#include "rounds/graph_source.hpp"
#include "rounds/trace.hpp"
#include "skeleton/codec.hpp"
#include "skeleton/tracker.hpp"
#include "util/cli.hpp"

namespace {

using namespace sskel;

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: sskel <run|replay|analyze|dump|make-seed> [flags]\n"
               "  run       --adversary=random|figure1|impossibility|"
               "eventual|partition\n"
               "            [--n=N] [--k=K] [--roots=J] [--seed=S] "
               "[--noise=P]\n"
               "            [--record=FILE] [--quiet]\n"
               "  replay    --file=FILE [--k=K] [--quiet]\n"
               "  analyze   --file=FILE\n"
               "  dump      --file=FILE\n"
               "  make-seed --out=DIR\n");
  std::exit(2);
}

/// Writes `b` to `path` or exits 1. The stream is checked after the
/// write and again after the close, because a full device accepts the
/// buffered write and fails only when the buffer is flushed.
void save_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream os(path, std::ios::binary);
  if (os) {
    os.write(reinterpret_cast<const char*>(b.data()),
             static_cast<std::streamsize>(b.size()));
  }
  if (os) os.close();
  if (!os) {
    std::fprintf(stderr, "sskel: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

std::vector<std::uint8_t> load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    std::fprintf(stderr, "sskel: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is),
                                   std::istreambuf_iterator<char>());
}

RunCapture load_capture(const std::string& path) {
  DecodeResult<RunCapture> capture = decode_trace(load_file(path));
  if (!capture.ok()) {
    std::fprintf(stderr, "sskel: %s is not a valid capture: %s\n",
                 path.c_str(), capture.error().to_string().c_str());
    std::exit(1);
  }
  return std::move(capture.value());
}

/// The capture's graphs, or exit 1 when it has none.
std::vector<Digraph> load_graphs(const std::string& path) {
  RunCapture capture = load_capture(path);
  if (capture.graphs.empty()) {
    std::fprintf(stderr, "sskel: %s has no graphs\n", path.c_str());
    std::exit(1);
  }
  return std::move(capture.graphs);
}

void print_report(const KSetRunReport& report, int k, bool quiet) {
  if (!quiet) {
    for (ProcId p = 0; p < report.n; ++p) {
      const Outcome& o = report.outcomes[static_cast<std::size_t>(p)];
      std::cout << "  p" << p << ": proposed " << o.proposal << " -> ";
      if (o.decided) {
        std::cout << "decided " << o.decision << " (round "
                  << o.decision_round << ")\n";
      } else {
        std::cout << "UNDECIDED\n";
      }
    }
  }
  std::cout << "rounds executed: " << report.rounds_executed
            << ", r_ST: " << report.skeleton_last_change
            << ", root components: " << report.root_components_final.size()
            << "\n";
  std::cout << "distinct values: " << report.distinct_values << " (k = " << k
            << ")\n";
  std::cout << "k-agreement " << (report.verdict.k_agreement ? "ok" : "VIOLATED")
            << ", validity " << (report.verdict.validity ? "ok" : "VIOLATED")
            << ", termination "
            << (report.verdict.termination ? "ok" : "VIOLATED") << "\n";
}

std::unique_ptr<GraphSource> build_adversary(const CliArgs& args, int k) {
  const std::string kind = args.get_string("adversary", "random");
  const ProcId n = static_cast<ProcId>(args.get_int("n", 10));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (kind == "random") {
    RandomPsrcsParams params;
    params.n = n;
    params.k = k;
    params.root_components =
        static_cast<int>(args.get_int("roots", k));
    params.noise_probability = args.get_double("noise", 0.25);
    params.stabilization_round = 3;
    return std::make_unique<RandomPsrcsSource>(seed, params);
  }
  if (kind == "figure1") return make_figure1_source();
  if (kind == "impossibility") return make_impossibility_source(n, k);
  if (kind == "eventual") return make_eventual_source(n, 2 * n);
  if (kind == "partition") {
    PartitionParams params;
    params.blocks = even_blocks(n, k);
    params.cross_noise_probability = args.get_double("noise", 0.0);
    params.stabilization_round = 3;
    return std::make_unique<PartitionSource>(seed, params);
  }
  std::fprintf(stderr, "sskel: unknown adversary '%s'\n", kind.c_str());
  std::exit(2);
}

int cmd_run(const CliArgs& args) {
  const int k = static_cast<int>(args.get_int("k", 2));
  auto source = build_adversary(args, k);

  KSetRunConfig config;
  config.k = k;
  // Recording keeps every round's graph, so it runs only when asked.
  const std::string record_path = args.get_string("record", "");
  RunCapture capture;
  const KSetRunReport report =
      record_path.empty()
          ? run_kset(*source, config)
          : run_kset_recorded(
                *source, config,
                static_cast<std::uint64_t>(args.get_int("seed", 1)), capture);
  print_report(report, k, args.get_bool("quiet", false));

  if (!record_path.empty()) {
    save_file(record_path, encode_trace(capture));
    std::cout << "recorded " << capture.graphs.size() << " rounds to "
              << record_path << "\n";
  }
  return report.verdict.all_hold() ? 0 : 1;
}

int cmd_replay(const CliArgs& args) {
  const std::string path = args.get_string("file", "");
  if (path.empty()) usage();
  std::vector<Digraph> graphs = load_graphs(path);
  // The Simulator runs every process every round; a capture whose
  // graph drops a process decodes, but is not a run it can replay.
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    if (graphs[i].nodes().count() != graphs[i].n()) {
      std::fprintf(stderr, "sskel: %s: the round %zu graph lacks a process\n",
                   path.c_str(), i + 1);
      return 1;
    }
  }
  ScheduleSource replay(std::move(graphs));
  const int k = static_cast<int>(args.get_int("k", 2));
  KSetRunConfig config;
  config.k = k;
  const KSetRunReport report = run_kset(replay, config);
  print_report(report, k, args.get_bool("quiet", false));
  return report.verdict.all_hold() ? 0 : 1;
}

int cmd_analyze(const CliArgs& args) {
  const std::string path = args.get_string("file", "");
  if (path.empty()) usage();
  const std::vector<Digraph> run = load_graphs(path);

  SkeletonTracker tracker(run.front().n());
  for (std::size_t i = 0; i < run.size(); ++i) {
    Digraph g = run[i];
    g.add_self_loops();
    tracker.observe(static_cast<Round>(i + 1), g);
  }
  const Digraph& skeleton = tracker.skeleton();

  std::cout << "capture: " << run.size() << " rounds, n = " << skeleton.n()
            << "\n";
  std::cout << "skeleton: " << skeleton.edge_count()
            << " edges, last change at round " << tracker.last_change_round()
            << "\n";
  const auto roots = root_components(skeleton);
  std::cout << "root components (" << roots.size() << "):\n";
  for (const ProcSet& root : roots) {
    std::cout << "  " << root.to_string() << "\n";
  }
  if (skeleton.n() <= 20) {
    const PredicateProfile profile = profile_skeleton(skeleton);
    if (profile.min_k < skeleton.n()) {
      std::cout << "smallest k with Psrcs(k): " << profile.min_k << "\n";
    } else {
      std::cout << "Psrcs(k) fails for every k < n\n";
    }
    std::cout << "Theorem 1 (roots <= min k): "
              << (profile.theorem1_consistent ? "consistent" : "VIOLATED")
              << "\n";
  } else {
    std::cout << "(skipping exact predicate analysis for n > 20)\n";
  }
  return 0;
}

const char* source_name(TraceSource s) {
  switch (s) {
    case TraceSource::kSimulator: return "simulator";
    case TraceSource::kNetRing: return "net/ring";
    case TraceSource::kNetEventQueue: return "net/event-queue";
  }
  return "?";
}

const char* kind_name(DeliveryKind k) {
  switch (k) {
    case DeliveryKind::kOnTime: return "on-time";
    case DeliveryKind::kLate: return "late";
    case DeliveryKind::kDropped: return "dropped";
    case DeliveryKind::kTieDiscard: return "tie-discard";
  }
  return "?";
}

int cmd_dump(const CliArgs& args) {
  const std::string path = args.get_string("file", "");
  if (path.empty()) usage();
  const RunCapture c = load_capture(path);

  std::cout << "header: n=" << c.header.n << " source="
            << source_name(c.header.source) << " seed=" << c.header.seed
            << " D=" << c.header.round_duration << "\n";
  std::cout << "frames: " << c.graphs.size() << " graphs, " << c.stats.size()
            << " stats, " << c.messages.size() << " messages, "
            << c.deliveries.size() << " deliveries, " << c.closes.size()
            << " closes\n";
  for (std::size_t i = 0; i < c.graphs.size(); ++i) {
    const Digraph& g = c.graphs[i];
    std::cout << "  round " << i + 1 << ": " << g.nodes().count()
              << " nodes, " << g.edge_count() << " edges";
    if (i < c.stats.size()) {
      std::cout << ", " << c.stats[i].messages_delivered << " msgs, "
                << c.stats[i].bytes_delivered << " bytes";
    }
    std::cout << "\n";
  }
  std::int64_t by_kind[4] = {0, 0, 0, 0};
  for (const DeliveryRecord& d : c.deliveries) {
    ++by_kind[static_cast<int>(d.kind)];
  }
  std::cout << "deliveries: " << by_kind[0] << " on-time, " << by_kind[1]
            << " late, " << by_kind[2] << " dropped, " << by_kind[3]
            << " tie-discard\n";
  if (!c.deliveries.empty()) {
    std::cout << "first deliveries:\n";
    for (std::size_t i = 0; i < c.deliveries.size() && i < 10; ++i) {
      const DeliveryRecord& d = c.deliveries[i];
      std::cout << "  r" << d.round << " " << d.from << "->" << d.to << " "
                << kind_name(d.kind) << " t=" << d.time << "\n";
    }
  }
  return 0;
}

int cmd_make_seed(const CliArgs& args) {
  const std::string dir = args.get_string("out", "");
  if (dir.empty()) usage();

  // Graph-codec seed: labels spanning one- and two-byte varints.
  LabeledDigraph lg(11, 4);
  for (ProcId p = 0; p < 11; ++p) lg.add_node(p);
  lg.set_edge(4, 7, 200);
  lg.set_edge(9, 1, 3);
  save_file(dir + "/graph_codec.bin", encode_graph(lg));

  // Trace seed: every frame type, every delivery kind.
  RunCapture c;
  c.header = TraceHeader{5, TraceSource::kNetRing, 42, 1000};
  Digraph g(5);
  g.add_self_loops();
  g.add_edge(0, 1);
  c.graphs = {g};
  c.stats = {RoundStats{1, 7, 140, 20}};
  c.messages.push_back(MessageRecord{1, 0, {0xde, 0xad, 0xbe, 0xef}});
  c.deliveries.push_back(DeliveryRecord{1, 0, 1, DeliveryKind::kOnTime, 900});
  c.deliveries.push_back(DeliveryRecord{1, 1, 2, DeliveryKind::kLate, 1100});
  c.deliveries.push_back(DeliveryRecord{1, 2, 3, DeliveryKind::kDropped, 0});
  c.deliveries.push_back(
      DeliveryRecord{1, 3, 4, DeliveryKind::kTieDiscard, 1000});
  c.closes.push_back(CloseRecord{1, 0, 1000});
  save_file(dir + "/trace_codec.bin", encode_trace(c));

  std::cout << "wrote graph_codec.bin, trace_codec.bin to " << dir << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  const CliArgs args(argc - 1, argv + 1,
                     {"adversary", "n", "k", "roots", "seed", "noise",
                      "record", "file", "quiet", "out"});
  if (command == "run") return cmd_run(args);
  if (command == "replay") return cmd_replay(args);
  if (command == "analyze") return cmd_analyze(args);
  if (command == "dump") return cmd_dump(args);
  if (command == "make-seed") return cmd_make_seed(args);
  usage();
}
