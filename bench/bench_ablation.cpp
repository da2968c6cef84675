// E10 — ablation: every structural line of Algorithm 1 is load-bearing.
//
// Runs the ablated variants on a run with a transient prefix (so stale
// knowledge exists to be purged) and a follower population (so decide
// forwarding matters), and reports what breaks:
//
//   * no Line 10-13 (decide forwarding): followers never decide.
//   * no Line 24 (purge): stale transient edges keep foreign nodes in
//     every root member's graph, Line 28 never fires -> nobody decides.
//   * no Line 25 (prune): unreachable nodes linger, blocking strong
//     connectivity the same way.
//   * no Line 15 (reset): accumulated structure defeats purge+prune.
//   * faithful: everything decides within the Lemma 11 bound.
#include <algorithm>
#include <iostream>

#include "ablation.hpp"
#include "adversary/random_psrcs.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using namespace sskel;
  std::cout << "=====================================================\n"
            << " E10: ablation — what each line of Algorithm 1 buys\n"
            << "=====================================================\n\n";

  struct Variant {
    const char* name;
    AblationFlags flags;
  };
  const std::vector<Variant> variants = {
      {"faithful Algorithm 1", {}},
      {"no decide forwarding (L10-13)", {true, true, true, false}},
      {"no purge (L24)", {true, false, true, true}},
      {"no prune (L25)", {true, true, false, true}},
      {"no graph reset (L15)", {false, true, true, true}},
      {"no purge, no prune", {true, false, false, true}},
  };

  const ProcId n = 10;
  const int k = 2;
  const int trials = 30;
  const Round max_rounds = 12 * n;

  Table table("ablated Algorithm 1 on transient-prefix Psrcs(2) runs "
              "(n=10, 30 trials)",
              {"variant", "runs all-decided", "mean decided procs",
               "values max", ">k viol", "mean last decision"});
  for (const Variant& v : variants) {
    int all_decided_runs = 0;
    int over_k = 0;
    int values_max = 0;
    Accumulator decided_procs, last_round;
    for (int t = 0; t < trials; ++t) {
      RandomPsrcsParams params;
      params.n = n;
      params.k = k;
      params.root_components = k;
      params.stabilization_round = 4;  // transient prefix matters
      params.noise_probability = 0.3;
      RandomPsrcsSource source(
          mix_seed(0xAB1A, static_cast<std::uint64_t>(t)), params);
      const AblationRunResult r =
          run_ablation(source, v.flags, k, max_rounds);
      if (r.all_decided) {
        ++all_decided_runs;
        last_round.add(r.last_decision_round);
      }
      if (r.distinct_values > k) ++over_k;
      values_max = std::max(values_max, r.distinct_values);
      decided_procs.add(r.decided_count);
    }
    table.add_row({v.name,
                   cell(all_decided_runs) + "/" + cell(trials),
                   cell(decided_procs.mean(), 1), cell(values_max),
                   cell(over_k),
                   all_decided_runs > 0 ? cell(last_round.mean(), 1)
                                        : std::string("n/a")});
  }
  table.print(std::cout);
  std::cout
      << "Reading: disabling decide forwarding strands every process\n"
         "outside a root component; disabling purge and/or prune leaves\n"
         "stale structure in the approximations, so the strong-\n"
         "connectivity test never fires once a run has a transient\n"
         "prefix — liveness breaks exactly as the proofs predict.\n"
         "Disabling only the Line-15 reset changes nothing observable:\n"
         "with purge + prune active, stale cells age out within n rounds\n"
         "anyway — the reset exists to make Lemma 3(c)'s 'exactly one\n"
         "label per edge' invariant hold per round, not for liveness.\n"
         "Safety (<= k values) survives every ablation: it rests on\n"
         "Psrcs(k) and estimate minimality, not on graph hygiene.\n";
  return 0;
}
