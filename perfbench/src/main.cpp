// The perfbench program: runs one workload and prints its metrics.
//
//   perfbench --workload fleet|consensus|network|certify --seed N
//             --seconds S --trace 0|1 [--smoke]
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with tracing off; with --trace 1 it carries the per-layer metrics of
// a traced run (half the time untraced, half traced over the same
// seeds). "key value" provenance lines come first; the last line of
// standard output is one JSON object {correct, attempted, failed,
// metrics}. Exit status 0 only when every trial passed its checks and
// a traced run reproduced the untraced one; 2 on bad arguments or a
// refused plan, with no result line.
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Args;
using perfbench::Result;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload fleet|consensus|network|certify"
               " --seed N --seconds S --trace 0|1 [--smoke]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (key != "--workload" && key != "--seed" && key != "--seconds" &&
        key != "--trace") {
      usage("unknown argument " + key);
    }
    if (i + 1 >= argc) usage("missing value for " + key);
    values[key] = argv[++i];
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (values.count(required) == 0) usage(std::string("missing ") + required);
  }
  args.workload = values["--workload"];
  const std::string& seed = values["--seed"];
  const auto [seed_end, seed_err] =
      std::from_chars(seed.data(), seed.data() + seed.size(), args.seed);
  if (seed_err != std::errc() || seed_end != seed.data() + seed.size()) {
    usage("--seed must be a non-negative integer");
  }
  char* end = nullptr;
  args.seconds = std::strtod(values["--seconds"].c_str(), &end);
  if (end == nullptr || *end != '\0' || !(args.seconds > 0.0) ||
      args.seconds > 3600.0) {
    usage("--seconds must be in (0, 3600]");
  }
  const std::string& trace = values["--trace"];
  if (trace != "0" && trace != "1") usage("--trace must be 0 or 1");
  args.trace = trace == "1";
  return args;
}

std::string number(double value) {
  char buf[32];
  const auto [end, err] = std::to_chars(buf, buf + sizeof(buf), value);
  return err == std::errc() ? std::string(buf, end) : "0";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Result result;
  try {
    if (args.workload == "fleet") {
      result = perfbench::run_fleet(args);
    } else if (args.workload == "consensus") {
      result = perfbench::run_consensus(args);
    } else if (args.workload == "network") {
      result = perfbench::run_network(args);
    } else if (args.workload == "certify") {
      result = perfbench::run_certify(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }

  for (const perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::cerr << "perfbench: metric " << m.name << " is not finite\n";
      return 2;
    }
  }
  if (args.trace && perfbench::totals().spans_kept > 0) {
    const std::filesystem::path dir =
        std::filesystem::path(".bench_build") / "perfbench";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string path = (dir / ("spans-" + args.workload + ".tsv")).string();
    result.note("spans_file",
                perfbench::write_tsv(path) ? path : "unwritten");
  }

  const bool correct =
      result.failed == 0 && result.fidelity_ok && result.attempted > 0;
  std::cout << "workload " << args.workload << "\n"
            << "seed " << args.seed << "\n"
            << "seconds " << number(args.seconds) << "\n"
            << "trace " << (args.trace ? 1 : 0) << "\n";
  for (const std::string& line : result.info) std::cout << line << "\n";
  std::cout << "fidelity " << (result.fidelity_ok ? "ok" : "MISMATCH") << "\n"
            << "fail_rate "
            << number(result.attempted > 0
                          ? static_cast<double>(result.failed) /
                                static_cast<double>(result.attempted)
                          : 1.0)
            << "\n";
  for (const perfbench::Metric& m : result.metrics) {
    std::cout << "metric " << m.name << " " << number(m.value) << " " << m.unit
              << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
              << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}
