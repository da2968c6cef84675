// E5 — message bit complexity: Sec. V claims Algorithm 1's worst-case
// message bit complexity is polynomial in n. The wire codec gives a
// real binary encoding (varints + node bitmap + labeled edge list).
//
// Table A simulates real runs (sparse hub topologies) and reports the
// largest encoded message and total traffic until the last decision.
// Table B measures the *worst-case* message directly — a maximally
// dense approximation graph (all n^2 labeled edges) — whose encoded
// size must grow ~n^2 (log-log slope ~2): that is the polynomial bound
// the paper states.
#include <cmath>
#include <iostream>

#include "mc/mc_plane.hpp"
#include "skeleton/codec.hpp"
#include "util/table.hpp"

int main() {
  using namespace sskel;
  std::cout << "======================================================\n"
            << " E5: encoded message size / total traffic vs n\n"
            << " (Sec. V: bit complexity polynomial in n)\n"
            << "======================================================\n\n";

  {
    const std::vector<std::pair<ProcId, int>> cases = {
        {4, 8}, {8, 8}, {16, 6}, {32, 4}, {64, 3}};
    Table table("A: simulated runs (hub topology, j = 2 roots)",
                {"n", "trials", "max msg bytes", "mean msgs/run",
                 "total bytes/run", "last decision (mean)"});
    for (const auto& [n, trials] : cases) {
      RandomPsrcsParams params;
      params.n = n;
      params.k = 2;
      params.root_components = 2;
      params.max_core_size = 3;
      params.noise_probability = 0.2;
      params.stabilization_round = 2;
      params.follower_edge_probability = 0.05;
      KSetRunConfig config;
      config.k = 2;
      config.measure_bytes = true;
      const RandomPsrcsScenario scenario(params);
      McTilePlane plane(scenario);
      const McSummary s = plane.run(0xE5, trials, config);
      table.add_row({cell(n), cell(trials),
                     cell(s.max_message_bytes.max(), 0),
                     cell(s.total_messages.mean(), 0),
                     cell(s.total_bytes.mean(), 0),
                     cell(s.last_decision_round.mean(), 1)});
    }
    table.print(std::cout);
  }

  {
    Table table("B: worst-case message — complete approximation graph",
                {"n", "encoded bytes", "bytes / n^2", "log-log slope"});
    double prev_bytes = 0;
    ProcId prev_n = 0;
    for (ProcId n : {4, 8, 16, 32, 64, 128, 256}) {
      LabeledDigraph g(n, 0);
      for (ProcId q = 0; q < n; ++q) {
        for (ProcId p = 0; p < n; ++p) {
          g.set_edge(q, p, 2 * n);  // labels near the purge horizon
        }
      }
      const double bytes = static_cast<double>(encoded_graph_size(g)) + 9;
      std::string slope = "-";
      if (prev_n != 0) {
        slope = cell(std::log(bytes / prev_bytes) /
                         std::log(static_cast<double>(n) /
                                  static_cast<double>(prev_n)),
                     2);
      }
      table.add_row({cell(n), cell(bytes, 0),
                     cell(bytes / (static_cast<double>(n) *
                                   static_cast<double>(n)),
                          2),
                     slope});
      prev_bytes = bytes;
      prev_n = n;
    }
    table.print(std::cout);
  }

  std::cout << "Reading: table B's slope -> 2 confirms the worst-case\n"
               "message is Theta(n^2 log r) bits — polynomial in n, as\n"
               "Sec. V states. Table A shows realistic (sparse-skeleton)\n"
               "runs stay far below that ceiling.\n";
  return 0;
}
