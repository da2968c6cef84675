// The round message of Algorithm 1, in compact form.
//
// Line 6/8: a process broadcasts (decide, x_p, G_p) once decided and
// (prop, x_p, G_p) otherwise — same payload, different tag. G_p is
// never stored: every label of it is min(λ_p(q), t(q', q)) (Lemma 6),
// so the message carries what determines it (DESIGN.md §8.1):
//
//   λ_p   the latest round of each node q's state that reached p;
//   N_p   the node set;
//   t     one read-only reference per node q to t(·, q), q's own
//         Line-9 history (PtHistory).
//
// Each t entry changes once, from "forever" to a round, and is read
// only through min(λ, ·), so a reference shows a reader nothing the
// sender had not already seen. graph(), encoded_size() and
// encode_message() derive the labeled G_p on demand; their bytes are
// the dense graph codec's.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/labeled_digraph.hpp"
#include "util/proc_set.hpp"
#include "util/types.hpp"

namespace sskel {

/// t(·, q): for every q', the last round in which q' was in PT_q
/// (Line 9), or kForever while it still is. Owned and advanced by
/// process q alone; everyone else reads it through message
/// references. Beside the table it keeps the set {q' : t(q', q) >
/// c} for its owner's current purge cutoff c, so a reader at a nearby
/// cutoff gets its in-edge row of q as one bitset copy plus the few
/// entries that expired in between.
class PtHistory {
 public:
  static constexpr Round kForever = std::numeric_limits<Round>::max();

  explicit PtHistory(ProcId n);
  /// Messages hold this object's address.
  PtHistory(const PtHistory&) = delete;
  PtHistory& operator=(const PtHistory&) = delete;

  /// Line 1: PT_q = Π, every entry kForever.
  void reset();

  /// Line 9 of round r: PT_q := PT_q ∩ senders. Every q' that leaves
  /// gets t(q', q) = r - 1, and the cutoff moves to max(r - n, 0).
  void advance(const ProcSet& senders, Round r);

  /// PT_q, the perceived perpetually-timely set.
  [[nodiscard]] const ProcSet& pt() const { return pt_; }

  /// t(q', q).
  [[nodiscard]] Round last_timely(ProcId q) const {
    return last_[static_cast<std::size_t>(q)];
  }

  /// out := { q' in mask : t(q', q) > cutoff } for any cutoff >= 0:
  /// the sources of q's in-edges that survive a purge at `cutoff`.
  /// `mask` and `out` are packed words (ProcSet::word_at layout), one
  /// per 64 processes. At the owner's own cutoff this is live_ & mask,
  /// inline: live_ is exactly { q' : t(q', q) > cutoff_ }, because every
  /// entry of expired_ below window_ has t <= cutoff_ and is out of it.
  void alive_after(Round cutoff, const std::uint64_t* mask,
                   std::uint64_t* out) const {
    if (cutoff == cutoff_) {
      for (std::size_t w = 0; w < live_.size(); ++w) {
        out[w] = live_[w] & mask[w];
      }
      return;
    }
    alive_after_shifted(cutoff, mask, out);
  }

 private:
  /// alive_after at a cutoff other than cutoff_: live_ plus or minus
  /// the entries of expired_ whose t lies between the two cutoffs.
  void alive_after_shifted(Round cutoff, const std::uint64_t* mask,
                           std::uint64_t* out) const;

  ProcId n_;
  ProcSet pt_;
  std::vector<Round> last_;
  /// Every q' that left PT_q, in leaving order (t non-decreasing).
  std::vector<ProcId> expired_;
  /// live_ = { q' : t(q', q) > cutoff_ } as packed words;
  /// expired_[window_..] are the entries of expired_ inside it.
  std::vector<std::uint64_t> live_;
  Round cutoff_ = 0;
  std::size_t window_ = 0;
  ProcSet left_;  // advance() scratch
};

struct SkeletonMessage {
  /// true = (decide, ...), false = (prop, ...).
  bool decide = false;
  /// The sender's estimate x_q (its decision value when decide).
  Value x = kNoValue;
  /// λ_q, indexed by process: 0 outside `nodes`; the sender's own
  /// entry is its round r, every other node's entry is smaller.
  std::vector<Round> lambda;
  /// N_q, the node set of G_q.
  ProcSet nodes;
  /// history[v] = &t(·, v) for every node v (entries outside `nodes`
  /// may be null or stale). Each points into v's process, so graph(),
  /// encoded_size() and encode_message() need the sending run's
  /// processes alive and not yet reset.
  std::vector<const PtHistory*> history;

  /// The round r of the sender's state: the message carries G_q^r.
  [[nodiscard]] Round round() const;

  /// The labeled approximation graph G_q^r, derived: edge (q' -> q)
  /// for nodes q', q with label min(λ(q), t(q', q)) > max(r - n, 0).
  [[nodiscard]] LabeledDigraph graph() const;
};

/// Encoded wire size in bytes: 1 tag byte + 8 value bytes + the graph
/// codec size of graph(), computed without materializing it. Used by
/// the simulator's message sizer for experiment E5 (bit complexity).
[[nodiscard]] std::int64_t encoded_size(const SkeletonMessage& m);

/// Appends the wire form — 1 tag byte, 8 little-endian value bytes,
/// then the graph codec of graph() — to `out`. Produces exactly
/// encoded_size(m) bytes; the trace recorder uses this as the
/// driver's message encoder so captures carry real wire payloads.
void encode_message(const SkeletonMessage& m, std::vector<std::uint8_t>& out);

}  // namespace sskel
