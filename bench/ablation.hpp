// Ablation variant of Algorithm 1: every structurally interesting line
// of the pseudocode can be switched off (experiment E10).
//
// DESIGN.md calls out the design choices the paper bakes into
// Algorithm 1. This process makes them measurable:
//
//   * reset_graph (Line 15) — without the per-round reset, G_p keeps
//     accumulating stale structure and the prune step loses meaning.
//   * purge_old (Line 24) — without aging out labels <= r - n, edges
//     of dead links persist forever; approximations of root-component
//     members never shrink back to their component, so Line 28 never
//     fires in runs with transient prefixes: termination breaks.
//   * prune_unreachable (Line 25) — without pruning, nodes that
//     cannot reach p stay in G_p; since strong connectivity is tested
//     over the whole node set, decisions are again delayed/blocked.
//   * forward_decides (Lines 10-13) — without adopting decide
//     messages, processes outside root components can never decide.
//
// Lines 15, 24 and 25 are exactly what the production process's O(n)
// state relies on (DESIGN.md §8.1), so the ablations run on the dense
// label matrices of the reference process's message type
// (tests/oracles/dense_kset.hpp). With all flags on, the behavior is
// the faithful Algorithm 1 (tested equivalent against
// SkeletonKSetProcess run for run).
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "kset/runner.hpp"
#include "kset/verify.hpp"
#include "oracles/dense_kset.hpp"
#include "rounds/algorithm.hpp"
#include "rounds/graph_source.hpp"
#include "rounds/simulator.hpp"
#include "util/proc_set.hpp"

namespace sskel {

using oracles::DenseMessage;

struct AblationFlags {
  bool reset_graph = true;        // Line 15
  bool purge_old = true;          // Line 24
  bool prune_unreachable = true;  // Line 25
  bool forward_decides = true;    // Lines 10-13

  [[nodiscard]] bool faithful() const {
    return reset_graph && purge_old && prune_unreachable && forward_decides;
  }
};

class AblationKSetProcess final : public Algorithm<DenseMessage> {
 public:
  AblationKSetProcess(ProcId n, ProcId id, Value proposal,
                      AblationFlags flags,
                      DecisionGuard guard = DecisionGuard::kAfterRoundN)
      : Algorithm(n, id),
        proposal_(proposal),
        x_(proposal),
        pt_(ProcSet::full(n)),
        g_(n, id),
        flags_(flags),
        guard_(guard) {
    SSKEL_REQUIRE(proposal != kNoValue);
  }

  [[nodiscard]] DenseMessage send(Round /*r*/) override {
    return DenseMessage{decided_, x_, g_};
  }

  void send_into(Round /*r*/, DenseMessage& out) override {
    out.decide = decided_;
    out.x = x_;
    out.graph = g_;  // copy-assign: the outbox slot's rows are reused
  }

  void transition(Round r, const Inbox<DenseMessage>& inbox) override {
    pt_ &= inbox.senders();

    if (flags_.forward_decides && !decided_) {
      Value adopted = kNoValue;
      for (ProcId q : pt_) {
        const DenseMessage& m = inbox.from(q);
        if (m.decide && (adopted == kNoValue || m.x < adopted)) adopted = m.x;
      }
      if (adopted != kNoValue) {
        x_ = adopted;
        decided_ = true;
        decision_round_ = r;
      }
    }

    if (flags_.reset_graph) oracles::reset(g_, id());
    for (ProcId q : pt_) {
      g_.set_edge(q, id(), r);
      oracles::merge_max(g_, inbox.from(q).graph);
    }
    if (flags_.purge_old) oracles::purge_labels_up_to(g_, r - n());
    if (flags_.prune_unreachable) {
      (void)oracles::prune_not_reaching(g_, id());
    }

    if (!decided_) {
      Value best = kNoValue;
      for (ProcId q : pt_) {
        const Value xq = inbox.from(q).x;
        if (best == kNoValue || xq < best) best = xq;
      }
      SSKEL_ASSERT(best != kNoValue);
      x_ = best;
      if (guard_passed(r) && g_.strongly_connected()) {
        decided_ = true;
        decision_round_ = r;
      }
    }
  }

  [[nodiscard]] Value proposal() const { return proposal_; }
  [[nodiscard]] Value estimate() const { return x_; }
  [[nodiscard]] bool decided() const { return decided_; }
  [[nodiscard]] Value decision() const {
    SSKEL_REQUIRE(decided_);
    return x_;
  }
  [[nodiscard]] Round decision_round() const { return decision_round_; }
  [[nodiscard]] const LabeledDigraph& approximation() const { return g_; }
  [[nodiscard]] const AblationFlags& flags() const { return flags_; }

 private:
  [[nodiscard]] bool guard_passed(Round r) const {
    return guard_ == DecisionGuard::kAfterRoundN ? r > n() : r >= n();
  }

  Value proposal_;
  Value x_;
  ProcSet pt_;
  LabeledDigraph g_;
  bool decided_ = false;
  Round decision_round_ = 0;
  AblationFlags flags_;
  DecisionGuard guard_;
};

/// Outcome summary of one ablation run (all processes share flags).
struct AblationRunResult {
  bool all_decided = false;
  int decided_count = 0;
  int distinct_values = 0;
  Round last_decision_round = 0;
  Round rounds_executed = 0;
};

/// Runs the ablated algorithm over the source until everyone decides
/// or max_rounds elapses.
[[nodiscard]] inline AblationRunResult run_ablation(GraphSource& source,
                                                    AblationFlags flags, int k,
                                                    Round max_rounds) {
  SSKEL_REQUIRE(k >= 1);
  const ProcId n = source.n();
  const std::vector<Value> proposals = default_proposals(n);

  std::vector<std::unique_ptr<Algorithm<DenseMessage>>> procs;
  std::vector<AblationKSetProcess*> views;
  for (ProcId p = 0; p < n; ++p) {
    auto proc = std::make_unique<AblationKSetProcess>(
        n, p, proposals[static_cast<std::size_t>(p)], flags);
    views.push_back(proc.get());
    procs.push_back(std::move(proc));
  }
  Simulator<DenseMessage> sim(source, std::move(procs));

  AblationRunResult result;
  while (sim.current_round() < max_rounds) {
    sim.step();
    bool all = true;
    for (const AblationKSetProcess* v : views) all = all && v->decided();
    if (all) break;
  }
  result.rounds_executed = sim.current_round();

  std::vector<Outcome> outcomes;
  result.all_decided = true;
  for (const AblationKSetProcess* v : views) {
    Outcome o;
    o.proposal = v->proposal();
    o.decided = v->decided();
    if (v->decided()) {
      o.decision = v->decision();
      o.decision_round = v->decision_round();
      ++result.decided_count;
      result.last_decision_round =
          std::max(result.last_decision_round, v->decision_round());
    } else {
      result.all_decided = false;
    }
    outcomes.push_back(o);
  }
  result.distinct_values = distinct_decisions(outcomes);
  return result;
}

}  // namespace sskel
