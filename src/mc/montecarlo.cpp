#include "mc/montecarlo.hpp"

namespace sskel {

void fold_scenario_trial(McSummary& summary, const ScenarioTrial& trial,
                         const KSetRunConfig& config) {
  const KSetRunReport& report = trial.kset;
  ++summary.runs;
  if (!report.all_decided) ++summary.undecided_runs;
  if (!report.verdict.k_agreement) ++summary.agreement_violations;
  if (!report.verdict.validity) ++summary.validity_violations;
  if (report.all_decided &&
      report.last_decision_round > report.termination_bound(config.guard)) {
    ++summary.bound_violations;
  }
  if (!report.lemma_violations.empty()) ++summary.lemma_violation_runs;

  summary.distinct_values.add(report.distinct_values);
  summary.distinct_histogram.add(report.distinct_values);
  const int roots = static_cast<int>(report.root_components_final.size());
  summary.root_components.add(roots);
  summary.root_histogram.add(roots);
  if (report.all_decided) {
    summary.last_decision_round.add(report.last_decision_round);
  }
  summary.stabilization_round.add(report.skeleton_last_change);
  summary.total_messages.add(static_cast<double>(report.total_messages));
  if (summary.bytes_measured) {
    summary.total_bytes.add(static_cast<double>(report.total_bytes));
    summary.max_message_bytes.add(
        static_cast<double>(report.max_message_bytes));
  }
  if (trial.net_backed) {
    summary.net_backed = true;
    summary.late_messages.add(static_cast<double>(trial.late_messages));
    summary.lost_messages.add(static_cast<double>(trial.lost_messages));
    summary.wall_clock_ms.add(static_cast<double>(trial.wall_clock) / 1000.0);
    summary.credit_stalls += trial.credit_stalls;
  }
}

}  // namespace sskel
