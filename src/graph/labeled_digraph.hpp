// LabeledDigraph: the weighted approximation digraph of Algorithm 1.
//
// Process p's local estimate G_p of the stable skeleton is a digraph
// whose edges carry *round labels*: edge (q' --s--> q) means "some
// process observed q' in PT(q, s)" (Lemma 6). Labels drive the aging
// rule of Line 24 (discard labels <= r - n) and the merge rule of
// Lines 19-23 (keep the maximal label over all graphs received from
// timely neighbors).
//
// No process holds one: Algorithm 1 keeps O(n) state and derives G_p
// on demand (kset/message.hpp, DESIGN.md §8.1). This type is that
// derived view — what the wire codec encodes, the lemma monitor
// checks and the traces print — and the state of the dense reference
// process in tests/oracles/dense_kset.hpp, which runs the
// pseudocode's Lines 15-25 (reset, merge, purge, prune) verbatim over
// the public API below.
//
// Representation: a node-presence ProcSet plus an n x n label matrix
// (label 0 = edge absent; valid labels are rounds >= 1), so one graph
// costs n^2 labels: a view for tests and small-n tooling, not per-
// round state at scale.
#pragma once

#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "util/proc_set.hpp"
#include "util/types.hpp"

namespace sskel {

class LabeledDigraph {
 public:
  LabeledDigraph() = default;

  /// Graph over n processes with node set {owner} and no edges — the
  /// initialization of Line 3 and the per-round reset of Line 15.
  LabeledDigraph(ProcId n, ProcId owner);

  [[nodiscard]] ProcId n() const { return n_; }
  [[nodiscard]] const ProcSet& nodes() const { return nodes_; }
  [[nodiscard]] bool has_node(ProcId p) const { return nodes_.contains(p); }

  void add_node(ProcId p);

  /// Sets edge (q -> p) with the given round label, inserting both
  /// endpoints; overwrites any existing label (the algorithm never
  /// keeps two labels for one edge, cf. Lemma 3(c)/Lemma 4(b)).
  void set_edge(ProcId q, ProcId p, Round label);

  /// Label of (q -> p), or 0 when the edge is absent.
  [[nodiscard]] Round label(ProcId q, ProcId p) const {
    return labels_[index(q, p)];
  }

  [[nodiscard]] bool has_edge(ProcId q, ProcId p) const {
    return label(q, p) != 0;
  }

  void remove_edge(ProcId q, ProcId p);

  [[nodiscard]] std::int64_t edge_count() const;

  /// Smallest / largest label present (0 when no edges).
  [[nodiscard]] Round min_label() const;
  [[nodiscard]] Round max_label() const;

  /// The unlabeled digraph on the same nodes/edges, for SCC tests and
  /// comparisons against skeleton graphs.
  [[nodiscard]] Digraph unlabeled() const;

  /// Strong connectivity of the present node set (Line 28's test).
  [[nodiscard]] bool strongly_connected() const;

  /// Nodes that reach `target` (includes `target`; empty when target
  /// is not a node) — the keep set of Line 25's prune. rows_ stores
  /// out-edges only, so this runs a fixpoint instead of a reverse BFS.
  /// It and strongly_connected count their fixpoints in
  /// metrics::Counter::kReachabilityComputations.
  [[nodiscard]] ProcSet reaching_set(ProcId target) const;

  /// Out-neighbors of q (targets of labeled edges from q). Kept as a
  /// bitset alongside the label matrix so that iterating the edges
  /// costs O(edges + n^2/64), not n^2.
  [[nodiscard]] const ProcSet& out_edges(ProcId q) const {
    SSKEL_REQUIRE(q >= 0 && q < n_);
    return rows_[static_cast<std::size_t>(q)];
  }

  bool operator==(const LabeledDigraph& other) const = default;

  /// Lists edges as "q -r-> p" sorted by (q, p), for tests and the
  /// Figure 1 reproduction.
  [[nodiscard]] std::string to_string(bool include_self_loops = true) const;

 private:
  /// Nodes reachable from `start` following labeled edges (forward
  /// BFS over rows_; includes `start`). Native so the Line-28 check
  /// constructs no Digraph.
  [[nodiscard]] ProcSet reachable_from(ProcId start) const;

  [[nodiscard]] std::size_t index(ProcId q, ProcId p) const {
    SSKEL_REQUIRE(q >= 0 && q < n_ && p >= 0 && p < n_);
    return static_cast<std::size_t>(q) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(p);
  }

  ProcId n_ = 0;
  ProcSet nodes_;
  std::vector<Round> labels_;
  /// rows_[q] = { p : label(q, p) != 0 }; maintained by every mutator.
  std::vector<ProcSet> rows_;
};

}  // namespace sskel
