// E8 — the Sec. V consensus remark: in "sufficiently well-behaved"
// runs (single root component in the stable skeleton), Algorithm 1
// solves consensus outright. Sweep over topologies with j = 1 root and
// growing follower populations, plus the partitioned-consensus
// scenario from the introduction (j = m partitions -> consensus per
// partition).
#include <iostream>
#include <set>

#include "adversary/partition.hpp"
#include "mc/mc_plane.hpp"
#include "util/table.hpp"

int main() {
  using namespace sskel;
  std::cout << "=====================================================\n"
            << " E8: consensus in well-behaved runs (Sec. V remark)\n"
            << "=====================================================\n\n";

  {
    Table table("A: single-root topologies -> consensus (60 trials/row)",
                {"n", "core size", "distinct values (max)", "consensus runs",
                 "mean decision round"});
    for (const auto& [n, core] :
         std::vector<std::pair<ProcId, int>>{{6, 2}, {10, 4}, {16, 6},
                                             {24, 8}, {32, 4}}) {
      RandomPsrcsParams params;
      params.n = n;
      params.k = 3;  // predicate slack: consensus must come from topology
      params.root_components = 1;
      params.max_core_size = core;
      params.stabilization_round = 3;
      KSetRunConfig config;
      config.k = 1;
      const RandomPsrcsScenario scenario(params);
      McTilePlane plane(scenario);
      const McSummary s = plane.run(0xE8, 60, config);
      table.add_row({cell(n), cell(core), cell(s.distinct_values.max(), 0),
                     cell(s.distinct_histogram.count(1)),
                     cell(s.last_decision_round.mean(), 1)});
    }
    table.print(std::cout);
  }

  {
    Table table("B: partitioned system -> consensus per partition",
                {"n", "partitions m", "distinct values", "= m?",
                 "per-partition consensus"});
    for (const auto& [n, m] : std::vector<std::pair<ProcId, int>>{
             {8, 2}, {12, 3}, {12, 4}, {20, 5}}) {
      // No cross traffic ever: each partition keeps its own minimum,
      // so the run realizes exactly m values. (With transient cross
      // noise, minima may leak across partitions before the skeleton
      // stabilizes — per-partition consensus still holds, but fewer
      // than m distinct values can remain; see the partition tests.)
      PartitionParams params;
      params.blocks = even_blocks(n, m);
      params.cross_noise_probability = 0.0;
      params.stabilization_round = 5;
      PartitionSource source(0xE8B, params);
      KSetRunConfig config;
      config.k = m;
      const KSetRunReport report = run_kset(source, config);
      bool per_partition = report.all_decided;
      for (const ProcSet& block : source.blocks()) {
        std::set<Value> vals;
        for (ProcId p : block) {
          vals.insert(report.outcomes[static_cast<std::size_t>(p)].decision);
        }
        per_partition = per_partition && vals.size() == 1;
      }
      table.add_row({cell(n), cell(m), cell(report.distinct_values),
                     report.distinct_values == m ? "yes" : "no",
                     per_partition ? "yes" : "NO"});
    }
    table.print(std::cout);
  }

  std::cout << "Reading: one root component -> one decision value, no k\n"
               "needed; disjoint partitions -> independent consensus per\n"
               "partition, the paper's motivating use of k-set agreement.\n";
  return 0;
}
