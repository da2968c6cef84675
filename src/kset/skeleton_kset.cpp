#include "kset/skeleton_kset.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/metrics.hpp"

namespace sskel {

SkeletonKSetProcess::SkeletonKSetProcess(ProcId n, ProcId id, Value proposal,
                                         DecisionGuard guard)
    : Algorithm(n, id),
      proposal_(proposal),
      guard_(guard),
      history_(n),  // Line 1: PT_p initially Π
      span_(ProcSet(n).word_span()),
      candidates_(n),
      candidate_words_(span_),
      rows_(static_cast<std::size_t>(n) * span_),
      snapshot_nodes_(n),
      snapshot_rows_(rows_.size()),
      bfs_(3 * span_),
      cached_keep_(n) {
  state_.lambda.assign(static_cast<std::size_t>(n), 0);
  state_.nodes = ProcSet(n);
  state_.history.assign(static_cast<std::size_t>(n), nullptr);
  reset(proposal);
}

void SkeletonKSetProcess::reset(Value proposal) {
  SSKEL_REQUIRE(proposal != kNoValue);
  proposal_ = proposal;
  history_.reset();            // Line 1
  state_.decide = false;
  state_.x = proposal;         // Line 2: x_p initially v_p
  std::fill(state_.lambda.begin(), state_.lambda.end(), 0);
  state_.nodes.clear();  // Line 3: <{p}, {}>
  state_.nodes.insert(id());
  std::fill(state_.history.begin(), state_.history.end(), nullptr);
  state_.history[static_cast<std::size_t>(id())] = &history_;
  decision_round_ = 0;
  path_ = DecisionPath::kNone;
  snapshot_valid_ = false;
  cached_sc_ = false;
  cached_sc_valid_ = false;
  reach_cache_hits_ = 0;
}

SkeletonMessage SkeletonKSetProcess::send(Round /*r*/) {
  // Lines 5-8: the same payload is broadcast either as a decide or a
  // prop message.
  return state_;
}

void SkeletonKSetProcess::send_into(Round /*r*/, SkeletonMessage& out) {
  out = state_;  // copy-assign: the outbox slot's buffers are reused
}

bool SkeletonKSetProcess::merge_and_purge(Round r,
                                          const Inbox<SkeletonMessage>& inbox) {
  // Lines 15-23. p's own message is its current state, so the merge
  // starts from it and folds in every other timely sender: λ_p(q) is
  // the max of the senders' λ_s(q) (0 outside N_s), and the
  // candidates are the union of their node sets, which contains
  // PT_p because every sender is a node of its own graph.
  const auto n = static_cast<std::size_t>(this->n());
  Round* lambda = state_.lambda.data();
  candidates_ = state_.nodes;
  for (ProcId s : history_.pt()) {
    if (s == id()) continue;
    const SkeletonMessage& m = inbox.from(s);
    const Round* theirs = m.lambda.data();
    for (std::size_t q = 0; q < n; ++q) {
      lambda[q] = std::max(lambda[q], theirs[q]);
    }
    if (!m.nodes.is_subset_of(candidates_)) {
      // New candidates bring their t references; every message that
      // names q carries the same one, so overwriting is harmless.
      for (ProcId q : m.nodes) {
        const auto qi = static_cast<std::size_t>(q);
        state_.history[qi] = m.history[qi];
      }
      candidates_ |= m.nodes;
    }
  }
  lambda[static_cast<std::size_t>(id())] = r;  // Line 17: (q -r-> p)

  // Line 24: an edge (q' -> q) survives the purge iff its label
  // min(λ_p(q), t(q', q)) exceeds the cutoff, so q's in-edge row is
  // the candidates q' with t(q', q) > cutoff — empty when λ_p(q) is
  // at or below it.
  const Round cutoff = std::max<Round>(r - this->n(), 0);
  for (std::size_t w = 0; w < span_; ++w) {
    candidate_words_[w] = candidates_.word_at(w);
  }
  std::uint64_t* row = rows_.data();
  for (std::size_t q = 0; q < n; ++q, row += span_) {
    const bool candidate = (candidate_words_[q / 64] >> (q % 64)) & 1U;
    if (candidate && lambda[q] > cutoff) {
      state_.history[q]->alive_after(cutoff, candidate_words_.data(), row);
    } else {
      std::fill(row, row + span_, 0);
    }
  }
  return !snapshot_valid_ || snapshot_nodes_ != candidates_ ||
         rows_ != snapshot_rows_;
}

void SkeletonKSetProcess::closure(const std::uint64_t* rows) {
  metrics::add(metrics::Counter::kReachabilityComputations, 1);
  std::uint64_t* visited = bfs_.data();
  std::uint64_t* frontier = visited + span_;
  std::uint64_t* next = frontier + span_;
  std::fill(visited, visited + span_, 0);
  std::fill(frontier, frontier + span_, 0);
  const auto p = static_cast<std::size_t>(id());
  visited[p / 64] = frontier[p / 64] = std::uint64_t{1} << (p % 64);
  for (bool more = true; more;) {
    std::fill(next, next + span_, 0);
    for (std::size_t w = 0; w < span_; ++w) {
      for (std::uint64_t bits = frontier[w]; bits != 0; bits &= bits - 1) {
        const std::size_t v =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        const std::uint64_t* row = rows + v * span_;
        for (std::size_t x = 0; x < span_; ++x) next[x] |= row[x];
      }
    }
    more = false;
    for (std::size_t w = 0; w < span_; ++w) {
      next[w] &= ~visited[w];
      visited[w] |= next[w];
      more = more || next[w] != 0;
    }
    std::swap(frontier, next);
  }
}

void SkeletonKSetProcess::prune_to_reaching_owner() {
  closure(snapshot_rows_.data());
  cached_keep_.clear();
  for (std::size_t w = 0; w < span_; ++w) {
    cached_keep_.or_word_at(w, bfs_[w]);
  }
}

bool SkeletonKSetProcess::pruned_strongly_connected() {
  // Every kept node reaches p, so the pruned graph is strongly
  // connected iff p reaches every kept node. Nothing p reaches lies
  // outside the keep-set (DESIGN.md §8.1: an edge into x needs
  // λ_p(x) above the cutoff, and then the chain that carried λ_p(x)
  // to p is a path from x to p), so an unrestricted forward closure
  // equals the keep-set exactly when the answer is yes. The closure
  // needs out-edge rows: transpose the snapshot.
  const auto n = static_cast<std::size_t>(this->n());
  out_rows_.assign(snapshot_rows_.size(), 0);
  const std::uint64_t* row = snapshot_rows_.data();
  for (std::size_t q = 0; q < n; ++q, row += span_) {
    for (std::size_t w = 0; w < span_; ++w) {
      for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        const std::size_t src =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        out_rows_[src * span_ + q / 64] |= std::uint64_t{1} << (q % 64);
      }
    }
  }
  closure(out_rows_.data());
  for (std::size_t w = 0; w < span_; ++w) {
    if (bfs_[w] != cached_keep_.word_at(w)) return false;
  }
  return true;
}

void SkeletonKSetProcess::transition(Round r,
                                     const Inbox<SkeletonMessage>& inbox) {
  // Line 9: update PT_p — a process stays timely only while it keeps
  // delivering every round (Eq. (7)). Whoever leaves gets its t(·, p).
  history_.advance(inbox.senders(), r);
  const ProcSet& pt = history_.pt();
  SSKEL_ASSERT(pt.contains(id()));  // self-delivery is guaranteed

  // Lines 10-13: adopt a decide message from a timely neighbor. When
  // several timely neighbors decided, adopt the minimum value for
  // determinism (any choice satisfies Lemma 13).
  if (!state_.decide) {
    Value adopted = kNoValue;
    for (ProcId q : pt) {
      const SkeletonMessage& m = inbox.from(q);
      if (m.decide && (adopted == kNoValue || m.x < adopted)) {
        adopted = m.x;
      }
    }
    if (adopted != kNoValue) {
      state_.x = adopted;      // Line 11
      state_.decide = true;    // Lines 12-13
      decision_round_ = r;
      path_ = DecisionPath::kForwarded;
    }
  }

  // Lines 14-24. This runs regardless of the decision state — decided
  // processes keep serving fresh approximations to the rest of the
  // system.
  const bool changed = merge_and_purge(r, inbox);

  // Line 25 — with change-driven reuse. The prune (and the Line-28
  // connectivity test) depend only on the post-purge structure, which
  // repeats round after round once the skeleton stabilizes; when it
  // matches the snapshot, the cached keep-set and verdict answer both
  // without a reachability fixpoint.
  if (!changed) {
    ++reach_cache_hits_;
  } else {
    std::swap(rows_, snapshot_rows_);
    snapshot_nodes_ = candidates_;
    snapshot_valid_ = true;
    prune_to_reaching_owner();
    cached_sc_valid_ = false;
  }
  // N_p := the keep-set; λ_p forgets the pruned candidates, a word
  // of candidates outside the keep-set at a time.
  for (std::size_t w = 0; w < span_; ++w) {
    std::uint64_t pruned = candidate_words_[w] & ~cached_keep_.word_at(w);
    for (; pruned != 0; pruned &= pruned - 1) {
      const std::size_t q =
          w * 64 + static_cast<std::size_t>(std::countr_zero(pruned));
      state_.lambda[q] = 0;
    }
  }
  state_.nodes = cached_keep_;

  if (!state_.decide) {  // Line 26
    // Line 27: x_p := min of the estimates heard from timely
    // neighbors. p hears itself, so x_p can only decrease (Obs. 2).
    Value best = kNoValue;
    for (ProcId q : pt) {
      const Value xq = inbox.from(q).x;
      if (best == kNoValue || xq < best) best = xq;
    }
    SSKEL_ASSERT(best != kNoValue);
    state_.x = best;

    // Lines 28-30: decide once the approximation is strongly
    // connected after the round guard. The verdict is evaluated
    // lazily and reused until the structure changes.
    if (guard_passed(r)) {
      if (!cached_sc_valid_) {
        cached_sc_ = pruned_strongly_connected();
        cached_sc_valid_ = true;
      }
      if (cached_sc_) {
        state_.decide = true;
        decision_round_ = r;
        path_ = DecisionPath::kConnected;
      }
    }
  }
}

Value SkeletonKSetProcess::decision() const {
  SSKEL_REQUIRE(state_.decide);
  return state_.x;
}

}  // namespace sskel
