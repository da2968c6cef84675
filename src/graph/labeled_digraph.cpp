#include "graph/labeled_digraph.hpp"

#include <algorithm>
#include <sstream>

#include "util/metrics.hpp"

namespace sskel {

LabeledDigraph::LabeledDigraph(ProcId n, ProcId owner)
    : n_(n),
      nodes_(n),
      labels_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0),
      rows_(static_cast<std::size_t>(n), ProcSet(n)) {
  SSKEL_REQUIRE(n > 0);
  SSKEL_REQUIRE(owner >= 0 && owner < n);
  nodes_.insert(owner);
}

void LabeledDigraph::add_node(ProcId p) {
  SSKEL_REQUIRE(p >= 0 && p < n_);
  nodes_.insert(p);
}

void LabeledDigraph::set_edge(ProcId q, ProcId p, Round label) {
  SSKEL_REQUIRE(label > 0);
  nodes_.insert(q);
  nodes_.insert(p);
  labels_[index(q, p)] = label;
  rows_[static_cast<std::size_t>(q)].insert(p);
}

void LabeledDigraph::remove_edge(ProcId q, ProcId p) {
  labels_[index(q, p)] = 0;
  rows_[static_cast<std::size_t>(q)].erase(p);
}

ProcSet LabeledDigraph::reachable_from(ProcId start) const {
  metrics::add(metrics::Counter::kReachabilityComputations, 1);
  ProcSet visited(n_);
  if (!nodes_.contains(start)) return visited;
  visited.insert(start);
  ProcSet frontier = visited;
  while (!frontier.empty()) {
    ProcSet next(n_);
    for (ProcId v : frontier) next |= rows_[static_cast<std::size_t>(v)];
    next -= visited;
    next &= nodes_;
    visited |= next;
    frontier = std::move(next);
  }
  return visited;
}

ProcSet LabeledDigraph::reaching_set(ProcId target) const {
  metrics::add(metrics::Counter::kReachabilityComputations, 1);
  ProcSet visited(n_);
  if (!nodes_.contains(target)) return visited;
  visited.insert(target);
  // rows_ holds out-edges only; iterate to a fixpoint instead of
  // materializing the reversed graph.
  bool changed = true;
  while (changed) {
    changed = false;
    for (ProcId q : nodes_) {
      if (visited.contains(q)) continue;
      if (rows_[static_cast<std::size_t>(q)].intersects(visited)) {
        visited.insert(q);
        changed = true;
      }
    }
  }
  return visited;
}

std::int64_t LabeledDigraph::edge_count() const {
  std::int64_t total = 0;
  for (const ProcSet& row : rows_) total += row.count();
  return total;
}

Round LabeledDigraph::min_label() const {
  Round best = 0;
  for (ProcId q = 0; q < n_; ++q) {
    for (ProcId p : rows_[static_cast<std::size_t>(q)]) {
      const Round l = labels_[index(q, p)];
      if (best == 0 || l < best) best = l;
    }
  }
  return best;
}

Round LabeledDigraph::max_label() const {
  Round best = 0;
  for (ProcId q = 0; q < n_; ++q) {
    for (ProcId p : rows_[static_cast<std::size_t>(q)]) {
      best = std::max(best, labels_[index(q, p)]);
    }
  }
  return best;
}

Digraph LabeledDigraph::unlabeled() const {
  Digraph g(n_);
  g = g.induced(nodes_);
  for (ProcId q : nodes_) {
    for (ProcId p : rows_[static_cast<std::size_t>(q)]) g.add_edge(q, p);
  }
  return g;
}

bool LabeledDigraph::strongly_connected() const {
  if (nodes_.empty()) return false;
  const ProcId v = nodes_.first();
  // One SCC iff some node reaches everything and everything reaches it.
  return reachable_from(v) == nodes_ && reaching_set(v) == nodes_;
}

std::string LabeledDigraph::to_string(bool include_self_loops) const {
  std::ostringstream os;
  os << "G(nodes=" << nodes_.to_string() << "; ";
  bool first = true;
  for (ProcId q : nodes_) {
    for (ProcId p : rows_[static_cast<std::size_t>(q)]) {
      if (!include_self_loops && q == p) continue;
      if (!first) os << ", ";
      os << 'p' << q << " -" << labels_[index(q, p)] << "-> p" << p;
      first = false;
    }
  }
  os << ')';
  return os.str();
}

}  // namespace sskel
