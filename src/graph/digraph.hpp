// Digraph: directed graphs over the process universe.
//
// This is the representation used for per-round communication graphs
// G^r, skeletons G∩r, and stable skeletons G∩∞ (Sec. II of the paper).
// Nodes are process ids; a node-presence set supports induced
// subgraphs and strongly connected components as first-class graphs.
// Adjacency is stored as ProcSet rows in both directions so that
//   * skeleton intersection is a word-parallel AND per row, and
//   * PT(p, r) (the timely in-neighborhood) is a direct row read.
//
// Invariant maintained by every mutator: edges exist only between
// present nodes, and in_/out_ stay mirror images of each other.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/proc_set.hpp"
#include "util/types.hpp"

namespace sskel {

/// What one (or several, when batched) shrink operations removed from
/// a digraph. Produced by Digraph::intersect_collect and consumed by
/// the decremental SCC maintainer: because skeletons only ever lose
/// edges (Lemma 1), the total volume of deltas over an entire run is
/// bounded by the initial edge count, so accumulating them is cheap.
struct GraphDelta {
  /// Removed edges as (from, to) pairs, each reported exactly once —
  /// including the incident edges of removed nodes.
  std::vector<std::pair<ProcId, ProcId>> removed_edges;
  /// Nodes the shrink removed entirely.
  std::vector<ProcId> removed_nodes;

  void clear() {
    removed_edges.clear();
    removed_nodes.clear();
  }

  [[nodiscard]] bool empty() const {
    return removed_edges.empty() && removed_nodes.empty();
  }
};

class Digraph {
 public:
  /// Graph over an empty universe.
  Digraph() = default;

  /// Graph with all n nodes present and no edges.
  explicit Digraph(ProcId n);

  Digraph(const Digraph& other);
  Digraph& operator=(const Digraph& other) = default;
  Digraph(Digraph&& other) noexcept = default;
  Digraph& operator=(Digraph&& other) noexcept = default;
  ~Digraph() = default;

  /// Count of Digraph constructions that allocated fresh adjacency
  /// storage (the n-node constructor and copy construction; assignment
  /// into an existing graph reuses storage and is not counted), summed
  /// over every thread's counter block (util/metrics.hpp): exact once
  /// the constructing threads are quiescent. Hot-loop tests assert
  /// this stays flat per round.
  [[nodiscard]] static std::int64_t graphs_constructed();

  /// All n nodes, every edge including self-loops (the complete graph;
  /// the skeleton tracker starts from this and intersects downward).
  static Digraph complete(ProcId n);

  /// All n nodes, exactly the self-loops (a fully partitioned round).
  static Digraph self_loops_only(ProcId n);

  [[nodiscard]] ProcId n() const { return n_; }
  [[nodiscard]] const ProcSet& nodes() const { return nodes_; }
  [[nodiscard]] bool has_node(ProcId p) const { return nodes_.contains(p); }
  [[nodiscard]] int node_count() const { return nodes_.count(); }

  /// Inserts node p (no edges).
  void add_node(ProcId p);

  /// Removes node p and every incident edge.
  void remove_node(ProcId p);

  /// Adds edge (q -> p): "p hears from q". Both endpoints are added if
  /// absent. Inline: derived-graph rows insert one edge per delivered
  /// message, making this the message plane's per-round inner loop.
  void add_edge(ProcId q, ProcId p) {
    check_node(q);
    check_node(p);
    nodes_.insert(q);
    nodes_.insert(p);
    out_[static_cast<std::size_t>(q)].insert(p);
    in_[static_cast<std::size_t>(p)].insert(q);
  }

  /// Adds edge (q -> p) for every q in `senders` — the bulk form the
  /// round drivers use to land a whole derived-graph row. The in-row
  /// and node updates are word-parallel set unions; only the out-row
  /// scatter walks the members.
  void add_in_edges(ProcId p, const ProcSet& senders) {
    check_node(p);
    SSKEL_REQUIRE(senders.universe() == n_);
    nodes_.insert(p);
    nodes_ |= senders;
    in_[static_cast<std::size_t>(p)] |= senders;
    for (ProcId q : senders) out_[static_cast<std::size_t>(q)].insert(p);
  }

  /// Bulk edge load: ORs in the edge set given as packed in-rows. Row
  /// p is the nodes().word_span() words at rows + p * span, and bit q
  /// of it means edge q -> p. Out-rows are materialized one 64 x 64
  /// block at a time by an in-register bit transpose (a scatter when
  /// the block holds few edges) instead of per-edge inserts, so a
  /// round driver can stage a whole derived graph in flat words and
  /// land it in O(n²/64) word stores. Nodes are not modified: callers
  /// must ensure every edge endpoint is already present (the drivers'
  /// graphs keep all n nodes present).
  void or_in_rows(const std::uint64_t* rows);

  /// The same bulk load from packed out-rows: bit p of row q means
  /// edge q -> p.
  void or_out_rows(const std::uint64_t* rows);

  void remove_edge(ProcId q, ProcId p);

  /// Restores the freshly-constructed state — all n nodes present, no
  /// edges — without releasing row storage. Round drivers recycle
  /// graphs through this instead of constructing (and heap-allocating
  /// 2n rows for) a new Digraph every round.
  void reset();

  /// Restores the complete graph (every edge including self-loops) in
  /// place, reusing row storage — the counterpart of reset() for
  /// consumers that start from Digraph::complete, like a recycled
  /// skeleton tracker.
  void fill_complete();

  [[nodiscard]] bool has_edge(ProcId q, ProcId p) const {
    return out_[static_cast<std::size_t>(q)].contains(p);
  }

  /// Successors of q: processes that hear from q.
  [[nodiscard]] const ProcSet& out_neighbors(ProcId q) const {
    return out_[static_cast<std::size_t>(q)];
  }

  /// Predecessors of p: processes p hears from. In paper terms the row
  /// of G∩r giving PT(p, r).
  [[nodiscard]] const ProcSet& in_neighbors(ProcId p) const {
    return in_[static_cast<std::size_t>(p)];
  }

  [[nodiscard]] std::int64_t edge_count() const;

  /// Ensures (p -> p) for every present node. Models the paper's
  /// convention that a process always hears from itself.
  void add_self_loops();

  /// Edge-and-node intersection, the G ∩ G' of footnote 3. Requires
  /// equal universes. Returns true when the intersection removed at
  /// least one node or edge — the change flag is computed inside the
  /// word-parallel AND, so callers (the skeleton tracker's version
  /// stamp) learn "nothing shrank" for free.
  bool intersect_with(const Digraph& other);

  /// intersect_with that additionally *appends* every removed node and
  /// edge to `delta` (existing delta contents are kept, so the skeleton
  /// tracker can batch several shrink rounds into one delta). Each
  /// removed edge is reported exactly once, via its out-row; the
  /// incident edges of removed nodes are included. Costs one extra
  /// ProcSet of scratch per call plus O(#removed) appends on top of the
  /// word-parallel AND.
  bool intersect_collect(const Digraph& other, GraphDelta& delta);

  /// Edge-and-node union. Requires equal universes.
  void union_with(const Digraph& other);

  /// The subgraph induced by `keep` (within the present nodes).
  [[nodiscard]] Digraph induced(const ProcSet& keep) const;

  /// True when `other` has every node and edge of *this (subgraph
  /// relation of Eq. (1)).
  [[nodiscard]] bool is_subgraph_of(const Digraph& other) const;

  bool operator==(const Digraph& other) const = default;

  /// Multi-line listing "p3 <- {p1, p5}" per node, for logs and tests.
  [[nodiscard]] std::string to_string() const;

  /// Graphviz rendering (self-loops omitted by default, as in Fig. 1).
  [[nodiscard]] std::string to_dot(const std::string& name,
                                   bool include_self_loops = false) const;

 private:
  void check_node(ProcId p) const {
    SSKEL_REQUIRE(p >= 0 && p < n_);
  }

  ProcId n_ = 0;
  ProcSet nodes_;
  std::vector<ProcSet> out_;
  std::vector<ProcSet> in_;
};

}  // namespace sskel
