// One-call harness: Algorithm 1 running over the simulated partially
// synchronous network instead of an abstract GraphSource.
//
// This closes the loop from the paper's abstract model back to a
// concrete system: timely links realize the hub cover that implies
// Psrcs(k) on the *derived* skeleton, and the decisions obey the same
// k ceiling — measured end to end through real (simulated) message
// timing, deadlines and discards. The run itself is the shared
// run_kset_on_engine() over a NetRoundDriver, so every KSetRunReport
// field (lemma monitoring, Psrcs analysis, byte accounting) is
// available on the network substrate too; this wrapper only adds the
// network-level accounting on top.
#pragma once

#include "kset/runner.hpp"
#include "net/driver.hpp"

namespace sskel {

struct NetKSetConfig {
  /// The full runner configuration (k, proposals, guard, max_rounds,
  /// tail, lemma monitor, byte measurement) — identical to the
  /// simulator entry point.
  KSetRunConfig run;
  /// The network substrate: round duration D, clock skews, seed.
  NetConfig net;
};

struct NetKSetReport {
  /// The substrate-agnostic report, exactly as run_kset() produces it.
  KSetRunReport kset;

  /// Network-level accounting.
  std::int64_t delivered_messages = 0;
  std::int64_t late_messages = 0;
  std::int64_t lost_messages = 0;
  /// Always 0: the driver deposits messages straight into the
  /// inboxes and has no ring to run out of credits
  /// (NetRoundDriver::credit_stalls). Kept so the Monte-Carlo and
  /// checkpoint folds of this field stay byte-identical.
  std::int64_t credit_stalls = 0;
  SimTime wall_clock = 0;  // simulated microseconds
};

/// Runs Algorithm 1 over the network defined by `links`.
[[nodiscard]] NetKSetReport run_kset_over_network(const LinkMatrix& links,
                                                  const NetKSetConfig& config);

}  // namespace sskel
