// The serial reference for Monte-Carlo batches.
//
// A batch of `trials` trials of a scenario is defined as a left fold:
// trial t runs with seed mix_seed(master_seed, t) and folds into the
// summary in trial order. This header writes that definition out in
// the plainest form — one thread, no scratch reuse, no interning — so
// the scheduler tripwires compare McTilePlane against the definition
// rather than against another scheduler. Only the trial-derived
// summary fields are set; service-level fields (intern, memory, tile
// provenance) stay at their defaults.
#pragma once

#include <cstdint>

#include "mc/montecarlo.hpp"
#include "mc/scenario.hpp"
#include "util/rng.hpp"

namespace sskel::oracles {

/// Runs trials [0, trials) of `scenario` one after another on the
/// calling thread and folds them in trial order, firing `per_trial`
/// after each fold. config.intern is ignored: every trial analyzes
/// its structures from scratch.
[[nodiscard]] inline McSummary serial_trials(
    const ScenarioFactory& scenario, std::uint64_t master_seed, int trials,
    const KSetRunConfig& config, const TrialCallback& per_trial = {}) {
  KSetRunConfig uninterned = config;
  uninterned.intern = nullptr;
  McSummary summary;
  summary.scenario = scenario.name();
  summary.bytes_measured = config.measure_bytes;
  for (int t = 0; t < trials; ++t) {
    const auto index = static_cast<std::uint64_t>(t);
    const ScenarioTrial trial =
        scenario.run_trial(mix_seed(master_seed, index), uninterned);
    fold_scenario_trial(summary, trial, config);
    if (per_trial) per_trial(static_cast<std::size_t>(t), trial);
  }
  return summary;
}

}  // namespace sskel::oracles
