// Property checking for k-set agreement runs (Sec. II-A).
//
//   k-Agreement: at most k distinct decision values.
//   Validity:    every decision was proposed by some process.
//   Termination: every process decides (here: by a given round bound).
#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

namespace sskel {

/// One process's outcome in a run.
struct Outcome {
  Value proposal = kNoValue;
  bool decided = false;
  Value decision = kNoValue;  // meaningful iff decided
  Round decision_round = 0;   // meaningful iff decided

  bool operator==(const Outcome&) const = default;
};

struct KSetVerdict {
  bool k_agreement = false;
  bool validity = false;
  bool termination = false;
  int distinct_decisions = 0;
  Round last_decision_round = 0;
  std::vector<std::string> failures;

  [[nodiscard]] bool all_hold() const {
    return k_agreement && validity && termination;
  }

  bool operator==(const KSetVerdict&) const = default;
};

/// Checks the three k-set agreement properties over per-process
/// outcomes. Termination holds when every process decided; when
/// `round_bound` > 0 it additionally requires every decision round to
/// be <= round_bound (used to validate Lemma 11's r_ST + 2n - 1).
[[nodiscard]] KSetVerdict verify_kset(const std::vector<Outcome>& outcomes,
                                      int k, Round round_bound = 0);

/// Count of distinct decision values among decided processes.
[[nodiscard]] int distinct_decisions(const std::vector<Outcome>& outcomes);

}  // namespace sskel
