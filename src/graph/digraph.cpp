#include "graph/digraph.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "util/metrics.hpp"

namespace sskel {

Digraph::Digraph(ProcId n)
    : n_(n),
      nodes_(ProcSet::full(n)),
      out_(static_cast<std::size_t>(n), ProcSet(n)),
      in_(static_cast<std::size_t>(n), ProcSet(n)) {
  SSKEL_REQUIRE(n >= 0);
  metrics::add(metrics::Counter::kGraphsConstructed, 1);
}

Digraph::Digraph(const Digraph& other)
    : n_(other.n_),
      nodes_(other.nodes_),
      out_(other.out_),
      in_(other.in_) {
  metrics::add(metrics::Counter::kGraphsConstructed, 1);
}

std::int64_t Digraph::graphs_constructed() {
  return metrics::total(metrics::Counter::kGraphsConstructed);
}

Digraph Digraph::complete(ProcId n) {
  Digraph g(n);
  const ProcSet all = ProcSet::full(n);
  for (ProcId p = 0; p < n; ++p) {
    g.out_[static_cast<std::size_t>(p)] = all;
    g.in_[static_cast<std::size_t>(p)] = all;
  }
  return g;
}

Digraph Digraph::self_loops_only(ProcId n) {
  Digraph g(n);
  for (ProcId p = 0; p < n; ++p) g.add_edge(p, p);
  return g;
}

void Digraph::add_node(ProcId p) {
  check_node(p);
  nodes_.insert(p);
}

void Digraph::remove_node(ProcId p) {
  check_node(p);
  if (!nodes_.contains(p)) return;
  nodes_.erase(p);
  // Remove incident edges in both directions.
  for (ProcId q : out_[static_cast<std::size_t>(p)]) {
    in_[static_cast<std::size_t>(q)].erase(p);
  }
  out_[static_cast<std::size_t>(p)].clear();
  for (ProcId q : in_[static_cast<std::size_t>(p)]) {
    out_[static_cast<std::size_t>(q)].erase(p);
  }
  in_[static_cast<std::size_t>(p)].clear();
}

void Digraph::reset() {
  nodes_.fill();
  for (ProcSet& row : out_) row.clear();
  for (ProcSet& row : in_) row.clear();
}

void Digraph::fill_complete() {
  const ProcSet all = ProcSet::full(n_);
  nodes_ = all;
  for (ProcSet& row : out_) row = all;
  for (ProcSet& row : in_) row = all;
}

namespace {
/// In-place 64x64 bit-matrix transpose (Hacker's Delight 7-3, with
/// the shifts mirrored for the LSB-is-column-0 convention ProcSet
/// uses): six levels of masked block swaps, all in registers. Bit c
/// of a[r] becomes bit r of a[c].
void transpose64(std::uint64_t a[64]) {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (unsigned j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & m;
      a[k] ^= t << j;
      a[k + j] ^= t;
    }
  }
}

/// ORs the n packed rows (span words each, bit c of row i's word w =
/// column w * 64 + c) into `direct` and their transpose into `mirror`,
/// one 64 x 64 block at a time. A block holding few bits is scattered
/// bit by bit instead: the full transpose costs as much as scattering
/// ~128 of them, whatever the block holds.
void or_rows(std::size_t n, std::size_t span, const std::uint64_t* rows,
             std::vector<ProcSet>& direct, std::vector<ProcSet>& mirror) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t w = 0; w < span; ++w) {
      direct[i].or_word_at(w, rows[i * span + w]);
    }
  }
  std::uint64_t block[64];
  for (std::size_t bi = 0; bi < span; ++bi) {
    const std::size_t height = std::min<std::size_t>(64, n - bi * 64);
    for (std::size_t bw = 0; bw < span; ++bw) {
      const std::size_t width = std::min<std::size_t>(64, n - bw * 64);
      int bits = 0;
      for (std::size_t i = 0; i < height; ++i) {
        block[i] = rows[(bi * 64 + i) * span + bw];
        bits += std::popcount(block[i]);
      }
      if (bits == 0) continue;
      if (bits > 128) {
        std::fill(block + height, block + 64, 0);
        transpose64(block);  // block[c] is now column bw * 64 + c
      } else {
        std::uint64_t cols[64] = {};
        for (std::size_t i = 0; i < height; ++i) {
          for (std::uint64_t b = block[i]; b != 0; b &= b - 1) {
            cols[std::countr_zero(b)] |= std::uint64_t{1} << i;
          }
        }
        std::copy(cols, cols + width, block);
      }
      for (std::size_t c = 0; c < width; ++c) {
        mirror[bw * 64 + c].or_word_at(bi, block[c]);
      }
    }
  }
}
}  // namespace

void Digraph::or_in_rows(const std::uint64_t* rows) {
  or_rows(static_cast<std::size_t>(n_), nodes_.word_span(), rows, in_, out_);
}

void Digraph::or_out_rows(const std::uint64_t* rows) {
  or_rows(static_cast<std::size_t>(n_), nodes_.word_span(), rows, out_, in_);
}

void Digraph::remove_edge(ProcId q, ProcId p) {
  check_node(q);
  check_node(p);
  out_[static_cast<std::size_t>(q)].erase(p);
  in_[static_cast<std::size_t>(p)].erase(q);
}

std::int64_t Digraph::edge_count() const {
  std::int64_t total = 0;
  for (ProcId p : nodes_) total += out_[static_cast<std::size_t>(p)].count();
  return total;
}

void Digraph::add_self_loops() {
  for (ProcId p : nodes_) add_edge(p, p);
}

bool Digraph::intersect_with(const Digraph& other) {
  SSKEL_REQUIRE(n_ == other.n_);
  bool changed = nodes_.intersect_changed(other.nodes_);
  for (ProcId p = 0; p < n_; ++p) {
    const auto i = static_cast<std::size_t>(p);
    if (!nodes_.contains(p)) {
      if (!out_[i].empty() || !in_[i].empty()) changed = true;
      out_[i].clear();
      in_[i].clear();
      continue;
    }
    changed |= out_[i].intersect_changed(other.out_[i]);
    changed |= in_[i].intersect_changed(other.in_[i]);
    // Edges must stay within the (possibly shrunken) node set.
    changed |= out_[i].intersect_changed(nodes_);
    changed |= in_[i].intersect_changed(nodes_);
  }
  return changed;
}

bool Digraph::intersect_collect(const Digraph& other, GraphDelta& delta) {
  SSKEL_REQUIRE(n_ == other.n_);
  ProcSet removed(n_);  // scratch, overwritten per row
  const bool nodes_changed = nodes_.intersect_diff(other.nodes_, removed);
  bool changed = nodes_changed;
  for (ProcId p : removed) delta.removed_nodes.push_back(p);
  for (ProcId p = 0; p < n_; ++p) {
    const auto i = static_cast<std::size_t>(p);
    if (!nodes_.contains(p)) {
      if (!out_[i].empty() || !in_[i].empty()) changed = true;
      // Every surviving out-edge of a removed node dies with it; the
      // in-edges (q -> p) surface as out-row diffs of the surviving q
      // below (rows are clamped to the shrunken node set).
      for (ProcId q : out_[i]) delta.removed_edges.push_back({p, q});
      out_[i].clear();
      in_[i].clear();
      continue;
    }
    if (out_[i].intersect_diff(other.out_[i], removed)) {
      changed = true;
      for (ProcId q : removed) delta.removed_edges.push_back({p, q});
    }
    // Rows were subsets of the old node set; a clamp to the shrunken
    // set can only remove something when nodes actually disappeared
    // this call — skip the second per-row pass otherwise.
    if (nodes_changed) {
      if (out_[i].intersect_diff(nodes_, removed)) {
        changed = true;
        for (ProcId q : removed) delta.removed_edges.push_back({p, q});
      }
      changed |= in_[i].intersect_changed(other.in_[i]);
      changed |= in_[i].intersect_changed(nodes_);
    } else {
      changed |= in_[i].intersect_changed(other.in_[i]);
    }
  }
  return changed;
}

void Digraph::union_with(const Digraph& other) {
  SSKEL_REQUIRE(n_ == other.n_);
  nodes_ |= other.nodes_;
  for (ProcId p = 0; p < n_; ++p) {
    const auto i = static_cast<std::size_t>(p);
    out_[i] |= other.out_[i];
    in_[i] |= other.in_[i];
  }
}

Digraph Digraph::induced(const ProcSet& keep) const {
  SSKEL_REQUIRE(keep.universe() == n_);
  Digraph g(n_);
  g.nodes_ = nodes_ & keep;
  for (ProcId p : g.nodes_) {
    const auto i = static_cast<std::size_t>(p);
    g.out_[i] = out_[i] & g.nodes_;
    g.in_[i] = in_[i] & g.nodes_;
  }
  return g;
}

bool Digraph::is_subgraph_of(const Digraph& other) const {
  SSKEL_REQUIRE(n_ == other.n_);
  if (!nodes_.is_subset_of(other.nodes_)) return false;
  for (ProcId p : nodes_) {
    const auto i = static_cast<std::size_t>(p);
    if (!out_[i].is_subset_of(other.out_[i])) return false;
  }
  return true;
}

std::string Digraph::to_string() const {
  std::ostringstream os;
  os << "Digraph(n=" << n_ << ", nodes=" << nodes_.to_string() << ")\n";
  for (ProcId p : nodes_) {
    os << "  p" << p << " <- "
       << in_[static_cast<std::size_t>(p)].to_string() << '\n';
  }
  return os.str();
}

std::string Digraph::to_dot(const std::string& name,
                            bool include_self_loops) const {
  std::ostringstream os;
  os << "digraph " << name << " {\n";
  for (ProcId p : nodes_) os << "  p" << p << ";\n";
  for (ProcId q : nodes_) {
    for (ProcId p : out_[static_cast<std::size_t>(q)]) {
      if (!include_self_loops && q == p) continue;
      os << "  p" << q << " -> p" << p << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace sskel
