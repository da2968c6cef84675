// Algorithm 1: approximating the stable skeleton graph and solving
// k-set agreement with Psrcs(k).
//
// The paper's pseudocode, per round r at process p:
//
//   send:      (decide | prop, x_p, G_p)                    (L5-8)
//   receive:   PT_p := PT_p cap senders                     (L9)
//              adopt a decide message from PT_p             (L10-13)
//              G_p := <{p}, {}>                             (L15)
//              add (q -r-> p) for q in PT_p                 (L16-18)
//              max-label merge of graphs from PT_p          (L19-23)
//              purge labels <= r - n                        (L24)
//              prune nodes not reaching p                   (L25)
//              if undecided:                                (L26)
//                x_p := min of estimates heard from PT_p    (L27)
//                if r > n and G_p strongly connected:       (L28)
//                  decide x_p                               (L29-30)
//
// Lines 15-25 run on O(n) state instead of an n x n label matrix
// (DESIGN.md §8.1). Every label of G_p is min(λ_p(q), t(q', q)), where
// λ_p(q) is the latest round of q's state that reached p and t(q', q)
// the last round with q' in PT_q, so p keeps only λ_p, its node set
// N_p and its own Line-9 history t(·, p):
//
//   λ_p(p) := r; λ_p(q) := max of λ_s(q) over s in PT_p     (L16-23)
//   candidates := union of N_s over s in PT_p               (L18)
//   (q' -> q) in G_p iff q' is a candidate and
//     min(λ_p(q), t(q', q)) > max(r - n, 0)                 (L24)
//   N_p := candidates reaching p over those edges           (L25)
//
// p answers Lines 25 and 28 from its own rows alone: a backward
// closure over the in-edge rows gives N_p, and a forward closure over
// their transpose decides strong connectivity. Both run only when the
// structure changed, on member word buffers: after the first
// structure change no round allocates, except that the first Line-28
// evaluation sizes the transpose buffer (DESIGN.md §8).
//
// approximation() and the message codec derive the labeled G_p on
// demand; the dense line-by-line process is the test oracle in
// tests/oracles/dense_kset.hpp, and the tripwires hold the two equal
// after every round.
//
// The one deliberately configurable point is the Line-28 round guard:
// the pseudocode reads "r > n", while Lemma 11's termination bound
// needs decisions as early as round n when the skeleton is stable from
// round 1. Both guards are safe (deciding later never breaks
// k-agreement; Lemma 14 only needs "not before round n"), so the guard
// is a constructor parameter with the literal pseudocode as default.
// Tests exercise both.
#pragma once

#include <cstdint>
#include <vector>

#include "kset/message.hpp"
#include "rounds/algorithm.hpp"
#include "util/proc_set.hpp"

namespace sskel {

class StructureInternTable;

/// How a decision was reached.
enum class DecisionPath {
  kNone,        // undecided
  kConnected,   // Line 29: own approximation strongly connected
  kForwarded,   // Line 12: adopted a neighbor's decide message
};

/// Line-28 round guard variants.
enum class DecisionGuard {
  kAfterRoundN,  // r > n  (the paper's literal pseudocode)
  kAtRoundN,     // r >= n (the earliest round Lemma 14 permits)
};

class SkeletonKSetProcess final : public Algorithm<SkeletonMessage> {
 public:
  /// `proposal` is v_p; `guard` selects the Line-28 variant.
  SkeletonKSetProcess(ProcId n, ProcId id, Value proposal,
                      DecisionGuard guard = DecisionGuard::kAfterRoundN);

  /// Restores the freshly-constructed state for a new trial with a
  /// (possibly different) proposal, reusing the state and structure-
  /// cache buffers instead of reallocating them. n, id and guard are
  /// fixed. The scheduler-equivalence tripwire
  /// (tests/mc/mc_plane_test.cpp) pins reset == construct.
  void reset(Value proposal);

  [[nodiscard]] SkeletonMessage send(Round r) override;
  void send_into(Round r, SkeletonMessage& out) override;
  void transition(Round r, const Inbox<SkeletonMessage>& inbox) override;

  /// v_p, the initial proposal.
  [[nodiscard]] Value proposal() const { return proposal_; }

  /// Current estimate x_p.
  [[nodiscard]] Value estimate() const { return state_.x; }

  [[nodiscard]] bool decided() const { return state_.decide; }

  /// The decided value; requires decided().
  [[nodiscard]] Value decision() const;

  /// Round in which the decision fired (0 when undecided).
  [[nodiscard]] Round decision_round() const { return decision_round_; }

  [[nodiscard]] DecisionPath decision_path() const { return path_; }

  /// PT_p, the perceived perpetually-timely set.
  [[nodiscard]] const ProcSet& pt() const { return history_.pt(); }

  /// G_p, the current approximation of the stable skeleton, derived
  /// from the compact state (O(n^2); for tests, monitors and traces).
  [[nodiscard]] LabeledDigraph approximation() const { return state_.graph(); }

  /// Rounds whose Line-25 prune (and, when reached, Line-28 test)
  /// were answered from the structure cache instead of recomputed.
  [[nodiscard]] std::int64_t reachability_cache_hits() const {
    return reach_cache_hits_;
  }

  /// Does nothing: the process answers Lines 25 and 28 from its own
  /// rows (DESIGN.md §8.1) and consults no intern table. Kept only
  /// because perfbench/src/traced_kset.cpp still calls it.
  void set_intern_table(StructureInternTable* /*table*/) {}

 private:
  [[nodiscard]] bool guard_passed(Round r) const {
    return guard_ == DecisionGuard::kAfterRoundN ? r > n() : r >= n();
  }

  /// Lines 16-24: merges the senders' λ and node sets into state_ and
  /// candidates_, then writes the post-purge in-edge rows into rows_.
  /// Returns whether the structure (candidates + rows) differs from
  /// the snapshot.
  bool merge_and_purge(Round r, const Inbox<SkeletonMessage>& inbox);

  /// Grows the visited words of bfs_ from {id()} to the closure over
  /// packed rows (row v, span_ words at rows + v * span_, lists the
  /// nodes one step from v). One counted reachability fixpoint; no
  /// allocation.
  void closure(const std::uint64_t* rows);

  /// Line 25 on the snapshot structure: the candidates that reach p,
  /// by a backward closure over the in-edge rows, into cached_keep_.
  void prune_to_reaching_owner();

  /// Line 28 on the pruned snapshot structure.
  [[nodiscard]] bool pruned_strongly_connected();

  Value proposal_;
  DecisionGuard guard_;
  /// Line 9's PT_p and t(·, p); state_.history[id()] points here.
  PtHistory history_;
  /// Everything p broadcasts: decide flag, x_p, λ_p, N_p and the
  /// t(·, v) references of the nodes it knows.
  SkeletonMessage state_;
  Round decision_round_ = 0;
  DecisionPath path_ = DecisionPath::kNone;

  /// Per-round scratch: the Line-18 candidates (also as packed words)
  /// and their post-purge in-edge rows, `span_` packed words per
  /// process: row q holds the sources of q's surviving in-edges.
  std::size_t span_;
  ProcSet candidates_;
  std::vector<std::uint64_t> candidate_words_;
  std::vector<std::uint64_t> rows_;

  /// Change-driven reuse of the Line-25/Line-28 reachability work
  /// (DESIGN.md §8). Both depend only on the post-purge structure,
  /// which repeats round after round once the skeleton stabilizes —
  /// so the keep-set and connectivity verdict stay valid as long as
  /// the structure matches the snapshot. A changed structure swaps
  /// into the snapshot instead of being copied.
  bool snapshot_valid_ = false;
  ProcSet snapshot_nodes_;
  std::vector<std::uint64_t> snapshot_rows_;
  /// The snapshot's out-edge rows, packed like snapshot_rows_; sized
  /// on the first Line-28 evaluation.
  std::vector<std::uint64_t> out_rows_;
  /// Closure scratch: the visited, frontier and next words, span_ each.
  std::vector<std::uint64_t> bfs_;
  ProcSet cached_keep_;            // Line-25 keep-set for the snapshot
  bool cached_sc_ = false;         // Line-28 verdict for the snapshot
  bool cached_sc_valid_ = false;   // Line 28 evaluated lazily
  std::int64_t reach_cache_hits_ = 0;
};

}  // namespace sskel
