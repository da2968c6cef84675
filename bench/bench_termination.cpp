// E4 — Lemma 11 quantitatively: every process decides by
// r_ST + 2n - 1 (+1 under the literal "r > n" guard).
//
// Sweep n x engineered stabilization round, 60 trials per row, both
// Line-28 guard variants. Reports the observed last-decision-round
// distribution against the analytic bound; "viol" must stay 0.
#include <iostream>

#include "mc/mc_plane.hpp"
#include "util/table.hpp"

int main() {
  using namespace sskel;
  std::cout << "=====================================================\n"
            << " E4: Lemma 11 — termination by r_ST + 2n - 1 (+guard)\n"
            << "=====================================================\n\n";

  struct Row {
    ProcId n;
    Round st;
  };
  const std::vector<Row> rows = {{4, 1}, {4, 8},  {8, 1},  {8, 4},
                                 {8, 12}, {16, 1}, {16, 8}, {24, 4},
                                 {32, 1}, {32, 16}};
  const int trials = 60;

  for (DecisionGuard guard :
       {DecisionGuard::kAfterRoundN, DecisionGuard::kAtRoundN}) {
    Table table(std::string("decision rounds vs Lemma 11 bound, guard = ") +
                    (guard == DecisionGuard::kAfterRoundN ? "r > n (paper)"
                                                          : "r >= n"),
                {"n", "eng. r_ST", "obs. r_ST mean", "last dec. mean",
                 "last dec. max", "bound (worst r_ST)", "bound viol",
                 "undecided"});
    bool all_ok = true;
    for (const Row& row : rows) {
      RandomPsrcsParams params;
      params.n = row.n;
      params.k = 2;
      params.root_components = 2;
      params.stabilization_round = row.st;
      params.noise_probability = 0.35;
      KSetRunConfig config;
      config.k = 2;
      config.guard = guard;
      config.max_rounds = 4 * row.n + 4 * row.st + 60;
      const RandomPsrcsScenario scenario(params);
      McTilePlane plane(scenario);
      const McSummary s = plane.run(0xE4, trials, config);

      const Round worst_bound =
          row.st + 2 * row.n - 1 +
          (guard == DecisionGuard::kAfterRoundN ? 1 : 0);
      all_ok = all_ok && s.bound_violations == 0 && s.undecided_runs == 0;
      table.add_row(
          {cell(row.n), cell(static_cast<std::int64_t>(row.st)),
           cell(s.stabilization_round.mean(), 2),
           cell(s.last_decision_round.mean(), 2),
           cell(s.last_decision_round.max(), 0),
           cell(static_cast<std::int64_t>(worst_bound)),
           cell(s.bound_violations), cell(s.undecided_runs)});
    }
    table.print(std::cout);
    if (!all_ok) {
      std::cout << "RESULT: BOUND VIOLATIONS FOUND.\n";
      return 1;
    }
  }
  std::cout << "RESULT: all decisions within the Lemma 11 bound, both "
               "guards.\n";
  return 0;
}
