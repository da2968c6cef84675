#include "util/proc_set.hpp"

#include <atomic>
#include <sstream>
#include <utility>

#include "util/metrics.hpp"
#include "util/word_kernels.hpp"

namespace sskel {
namespace {

std::atomic<int> g_tier_policy{static_cast<int>(ProcSet::TierPolicy::kAuto)};
std::atomic<std::size_t> g_tier_words{32};

using metrics::Counter;

/// Per-thread recycling pool for dense payload vectors. Only buffers
/// at least tier_threshold_words() long are worth parking (the small-
/// universe dense sets never release their payload anyway), and the
/// pool is capped so a pathological workload cannot park unbounded
/// memory. The `t_arena_live` flag has trivial destruction, so the
/// release hooks can safely detect (and skip) the window after the
/// arena's own thread-exit destructor has run.
constexpr std::size_t kArenaMaxBuffers = 64;

std::int64_t buffer_bytes(const std::vector<std::uint64_t>& buf) {
  return static_cast<std::int64_t>(buf.capacity() * sizeof(std::uint64_t));
}

thread_local bool t_arena_live = false;

struct WordArena {
  std::vector<std::vector<std::uint64_t>> buffers;

  WordArena() { t_arena_live = true; }
  ~WordArena() {
    t_arena_live = false;
    drop_all();
  }

  void drop_all() {
    for (const auto& buf : buffers) {
      metrics::add(Counter::kProcSetArenaBytes, -buffer_bytes(buf));
    }
    buffers.clear();
  }
};

WordArena* thread_arena() {
  thread_local WordArena arena;
  return t_arena_live ? &arena : nullptr;
}

/// A zeroed dense payload of `words` words, recycled when a parked
/// buffer is big enough (best fit; capacity is retained).
std::vector<std::uint64_t> arena_acquire(std::size_t words) {
  if (WordArena* arena = thread_arena(); arena != nullptr) {
    auto& pool = arena->buffers;
    std::size_t best = pool.size();
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (pool[i].capacity() < words) continue;
      if (best == pool.size() ||
          pool[i].capacity() < pool[best].capacity()) {
        best = i;
      }
    }
    if (best != pool.size()) {
      std::vector<std::uint64_t> buf = std::move(pool[best]);
      pool.erase(pool.begin() +
                 static_cast<std::ptrdiff_t>(best));
      metrics::add(Counter::kProcSetArenaBytes, -buffer_bytes(buf));
      metrics::add(Counter::kProcSetArenaReuses, 1);
      buf.assign(words, 0);
      return buf;
    }
  }
  return std::vector<std::uint64_t>(words, 0);
}

/// Parks a released dense payload when it is worth recycling;
/// otherwise lets it free normally.
void arena_release(std::vector<std::uint64_t>&& buf) {
  if (buf.capacity() < ProcSet::tier_threshold_words()) return;
  WordArena* arena = thread_arena();
  if (arena == nullptr || arena->buffers.size() >= kArenaMaxBuffers) return;
  metrics::add(Counter::kProcSetArenaBytes, buffer_bytes(buf));
  arena->buffers.push_back(std::move(buf));
}

/// Invokes fn(payload_word_index) for each set summary bit in
/// ascending order; fn returning false aborts the walk.
template <typename Fn>
bool walk_blocks(const std::vector<std::uint64_t>& summary, Fn&& fn) {
  for (std::size_t s = 0; s < summary.size(); ++s) {
    std::uint64_t bits = summary[s];
    while (bits != 0) {
      const auto j = static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      if (!fn(s * 64 + j)) return false;
    }
  }
  return true;
}

ProcId word_bit_to_proc(std::size_t w, std::uint64_t v) {
  return static_cast<ProcId>(w * 64 +
                             static_cast<std::size_t>(std::countr_zero(v)));
}

}  // namespace

void ProcSet::set_tier_policy(TierPolicy policy) {
  g_tier_policy.store(static_cast<int>(policy), std::memory_order_relaxed);
}

ProcSet::TierPolicy ProcSet::tier_policy() {
  return static_cast<TierPolicy>(g_tier_policy.load(std::memory_order_relaxed));
}

void ProcSet::set_tier_threshold_words(std::size_t words) {
  g_tier_words.store(words, std::memory_order_relaxed);
}

std::size_t ProcSet::tier_threshold_words() {
  return g_tier_words.load(std::memory_order_relaxed);
}

std::int64_t ProcSet::live_bytes() {
  return metrics::total(Counter::kProcSetLiveBytes);
}

std::int64_t ProcSet::peak_bytes() { return metrics::peak_live_bytes(); }

void ProcSet::reset_peak_bytes() { metrics::reset_peak_live_bytes(); }

std::int64_t ProcSet::arena_bytes() {
  return metrics::total(Counter::kProcSetArenaBytes);
}

std::int64_t ProcSet::arena_reuses() {
  return metrics::total(Counter::kProcSetArenaReuses);
}

void ProcSet::release_thread_arena() {
  if (WordArena* arena = thread_arena(); arena != nullptr) {
    arena->drop_all();
  }
}

bool ProcSet::tiered() const {
  return word_count(n_) >= tier_threshold_words() &&
         tier_policy() == TierPolicy::kAuto;
}

std::int64_t ProcSet::storage_bytes() const {
  return static_cast<std::int64_t>(
      words_.capacity() * sizeof(std::uint64_t) +
      summary_.capacity() * sizeof(std::uint64_t) +
      sidx_.capacity() * sizeof(std::uint32_t) +
      sval_.capacity() * sizeof(std::uint64_t));
}

void ProcSet::account() {
  const std::int64_t bytes = storage_bytes();
  if (bytes == footprint_) return;
  metrics::add(Counter::kProcSetLiveBytes, bytes - footprint_);
  footprint_ = bytes;
}

ProcSet::ProcSet(ProcId n) : n_(n) {
  SSKEL_REQUIRE(n >= 0);
  if (tiered()) {
    sparse_ = true;  // empty block list; no payload allocation yet
  } else {
    words_.assign(word_count(n_), 0);
  }
  account();
}

ProcSet::ProcSet(const ProcSet& other)
    : n_(other.n_),
      sparse_(other.sparse_),
      words_(other.words_),
      summary_(other.summary_),
      sidx_(other.sidx_),
      sval_(other.sval_) {
  account();
}

ProcSet::ProcSet(ProcSet&& other) noexcept
    : n_(other.n_),
      sparse_(other.sparse_),
      words_(std::move(other.words_)),
      summary_(std::move(other.summary_)),
      sidx_(std::move(other.sidx_)),
      sval_(std::move(other.sval_)),
      footprint_(other.footprint_) {
  other.n_ = 0;
  other.sparse_ = false;
  other.footprint_ = 0;
}

ProcSet& ProcSet::copy_assign_slow(const ProcSet& other) {
  if (this == &other) return *this;
  n_ = other.n_;
  sparse_ = other.sparse_;
  words_ = other.words_;
  summary_ = other.summary_;
  sidx_ = other.sidx_;
  sval_ = other.sval_;
  account();
  return *this;
}

ProcSet& ProcSet::operator=(ProcSet&& other) noexcept {
  if (this == &other) return *this;
  if (footprint_ != 0) metrics::add(Counter::kProcSetLiveBytes, -footprint_);
  n_ = other.n_;
  sparse_ = other.sparse_;
  words_ = std::move(other.words_);
  summary_ = std::move(other.summary_);
  sidx_ = std::move(other.sidx_);
  sval_ = std::move(other.sval_);
  footprint_ = other.footprint_;
  other.n_ = 0;
  other.sparse_ = false;
  other.footprint_ = 0;
  return *this;
}

ProcSet::~ProcSet() {
  if (footprint_ != 0) metrics::add(Counter::kProcSetLiveBytes, -footprint_);
  // Dense payloads of dying tiered sets (ProcSet::full temporaries,
  // scratch rows that never sparsified) are worth parking too.
  if (!sparse_ && !words_.empty()) arena_release(std::move(words_));
}

ProcSet ProcSet::full(ProcId n) {
  ProcSet s(n);
  s.sparse_ = false;
  s.sidx_.clear();
  s.sval_.clear();
  s.words_.assign(word_count(n), ~std::uint64_t{0});
  s.trim();
  if (s.tiered()) s.rebuild_summary();
  s.account();
  return s;
}

ProcSet ProcSet::singleton(ProcId n, ProcId p) {
  ProcSet s(n);
  s.insert(p);
  return s;
}

ProcSet ProcSet::of(ProcId n, std::initializer_list<ProcId> members) {
  ProcSet s(n);
  for (ProcId p : members) s.insert(p);
  return s;
}

void ProcSet::insert_sparse(ProcId p) {
  const std::size_t w = word(p);
  const auto wi = static_cast<std::uint32_t>(w);
  const auto it = std::lower_bound(sidx_.begin(), sidx_.end(), wi);
  const auto pos = static_cast<std::size_t>(it - sidx_.begin());
  if (it != sidx_.end() && *it == wi) {
    sval_[pos] |= mask(p);
    return;
  }
  sidx_.insert(it, wi);
  sval_.insert(sval_.begin() + static_cast<std::ptrdiff_t>(pos), mask(p));
  maybe_densify_for_growth(sidx_.size());
  account();
}

void ProcSet::erase_sparse(ProcId p) {
  const std::size_t w = word(p);
  const auto wi = static_cast<std::uint32_t>(w);
  const auto it = std::lower_bound(sidx_.begin(), sidx_.end(), wi);
  if (it == sidx_.end() || *it != wi) return;
  const auto pos = static_cast<std::size_t>(it - sidx_.begin());
  sval_[pos] &= ~mask(p);
  if (sval_[pos] == 0) {
    sidx_.erase(it);
    sval_.erase(sval_.begin() + static_cast<std::ptrdiff_t>(pos));
  }
}

void ProcSet::clear() {
  if (sparse_) {
    sidx_.clear();  // keeps capacity: cleared scratch sets are reused
    sval_.clear();
    return;
  }
  if (tiered()) {
    arena_release(std::move(words_));  // park the payload for reuse
    words_ = std::vector<std::uint64_t>{};
    summary_ = std::vector<std::uint64_t>{};
    sparse_ = true;
    account();
    return;
  }
  std::fill(words_.begin(), words_.end(), 0);
  std::fill(summary_.begin(), summary_.end(), 0);
}

void ProcSet::fill() {
  if (sparse_) {
    sidx_.clear();
    sval_.clear();
    densify();
  }
  std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
  trim();
  if (tiered()) {
    rebuild_summary();
  } else {
    summary_.clear();
  }
  account();
}

int ProcSet::count() const {
  if (sparse_) {
    return static_cast<int>(wk::popcount(sval_.data(), sval_.size()));
  }
  if (!summary_.empty()) {
    std::int64_t c = 0;
    walk_blocks(summary_, [&](std::size_t w) {
      c += std::popcount(words_[w]);
      return true;
    });
    return static_cast<int>(c);
  }
  return static_cast<int>(wk::popcount(words_.data(), words_.size()));
}

bool ProcSet::empty() const {
  if (sparse_) return sidx_.empty();
  const std::vector<std::uint64_t>& scan =
      summary_.empty() ? words_ : summary_;
  for (std::uint64_t w : scan) {
    if (w != 0) return false;
  }
  return true;
}

bool ProcSet::is_subset_of(const ProcSet& other) const {
  SSKEL_REQUIRE(n_ == other.n_);
  if (sparse_) {
    for (std::size_t i = 0; i < sidx_.size(); ++i) {
      if ((sval_[i] & ~other.word_at(sidx_[i])) != 0) return false;
    }
    return true;
  }
  if (!summary_.empty()) {
    return walk_blocks(summary_, [&](std::size_t w) {
      return (words_[w] & ~other.word_at(w)) == 0;
    });
  }
  if (other.sparse_) {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      if (words_[w] != 0 && (words_[w] & ~other.word_at(w)) != 0) return false;
    }
    return true;
  }
  return wk::subset(words_.data(), other.words_.data(), words_.size());
}

bool ProcSet::intersects(const ProcSet& other) const {
  SSKEL_REQUIRE(n_ == other.n_);
  if (sparse_ || other.sparse_) {
    const ProcSet& walk = sparse_ ? *this : other;
    const ProcSet& peer = sparse_ ? other : *this;
    for (std::size_t i = 0; i < walk.sidx_.size(); ++i) {
      if ((walk.sval_[i] & peer.word_at(walk.sidx_[i])) != 0) return true;
    }
    return false;
  }
  if (!summary_.empty() && summary_.size() == other.summary_.size()) {
    // Both summaries present: only blocks active on both sides can hit.
    for (std::size_t s = 0; s < summary_.size(); ++s) {
      std::uint64_t bits = summary_[s] & other.summary_[s];
      while (bits != 0) {
        const auto j = static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::size_t w = s * 64 + j;
        if ((words_[w] & other.words_[w]) != 0) return true;
      }
    }
    return false;
  }
  const std::vector<std::uint64_t>& guide =
      !summary_.empty() ? summary_ : other.summary_;
  if (!guide.empty()) {
    return !walk_blocks(guide, [&](std::size_t w) {
      return (words_[w] & other.words_[w]) == 0;
    });
  }
  return wk::intersects(words_.data(), other.words_.data(), words_.size());
}

int ProcSet::intersection_count(const ProcSet& other) const {
  SSKEL_REQUIRE(n_ == other.n_);
  std::int64_t c = 0;
  if (sparse_ || other.sparse_) {
    // Only blocks of the sparse operand (the shorter list when both
    // are sparse) can hold common members.
    const bool walk_other =
        !sparse_ || (other.sparse_ && other.sidx_.size() < sidx_.size());
    const ProcSet& walk = walk_other ? other : *this;
    const ProcSet& peer = walk_other ? *this : other;
    for (std::size_t i = 0; i < walk.sidx_.size(); ++i) {
      c += std::popcount(walk.sval_[i] & peer.word_at(walk.sidx_[i]));
    }
    return static_cast<int>(c);
  }
  if (!summary_.empty() && summary_.size() == other.summary_.size()) {
    for (std::size_t s = 0; s < summary_.size(); ++s) {
      std::uint64_t bits = summary_[s] & other.summary_[s];
      while (bits != 0) {
        const auto j = static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::size_t w = s * 64 + j;
        c += std::popcount(words_[w] & other.words_[w]);
      }
    }
    return static_cast<int>(c);
  }
  const std::vector<std::uint64_t>& guide =
      !summary_.empty() ? summary_ : other.summary_;
  if (!guide.empty()) {
    walk_blocks(guide, [&](std::size_t w) {
      c += std::popcount(words_[w] & other.words_[w]);
      return true;
    });
    return static_cast<int>(c);
  }
  for (std::size_t w = 0; w < words_.size(); ++w) {
    c += std::popcount(words_[w] & other.words_[w]);
  }
  return static_cast<int>(c);
}

std::uint64_t ProcSet::intersect_core(const ProcSet& other, ProcSet* diff) {
  SSKEL_REQUIRE(n_ == other.n_);
  if (diff != nullptr) {
    SSKEL_REQUIRE(diff->n_ == n_);
    diff->clear();
  }
  // Appends are in ascending word order on every non-kernel path, so a
  // sparse diff can push_back without re-sorting.
  const auto note = [&](std::size_t w, std::uint64_t gone) {
    if (diff->sparse_) {
      diff->sidx_.push_back(static_cast<std::uint32_t>(w));
      diff->sval_.push_back(gone);
    } else {
      diff->words_[w] = gone;
      if (!diff->summary_.empty()) diff->summary_set(w);
    }
  };
  std::uint64_t any = 0;

  if (sparse_) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < sidx_.size(); ++i) {
      const std::uint64_t before = sval_[i];
      const std::uint64_t after = before & other.word_at(sidx_[i]);
      const std::uint64_t gone = before ^ after;
      any |= gone;
      if (gone != 0 && diff != nullptr) note(sidx_[i], gone);
      if (after != 0) {
        sidx_[out] = sidx_[i];
        sval_[out] = after;
        ++out;
      }
    }
    sidx_.resize(out);
    sval_.resize(out);
    if (diff != nullptr) diff->account();
    return any;
  }

  if (!summary_.empty() &&
      (other.sparse_ || active_words() * 4 <= words_.size())) {
    // Summary-guided shrink: only this set's active blocks can lose
    // members, so the sweep is O(active blocks) however large n is.
    walk_blocks(summary_, [&](std::size_t w) {
      const std::uint64_t before = words_[w];
      const std::uint64_t after = before & other.word_at(w);
      const std::uint64_t gone = before ^ after;
      if (gone != 0) {
        any |= gone;
        if (diff != nullptr) note(w, gone);
        words_[w] = after;
        if (after == 0) summary_clear(w);
      }
      return true;
    });
    if (diff != nullptr) diff->account();
    maybe_sparsify();
    return any;
  }

  if (other.sparse_) {
    // Dense payload without a usable summary against a sparse operand
    // (mixed-policy epochs): scalar sweep with block lookups.
    for (std::size_t w = 0; w < words_.size(); ++w) {
      const std::uint64_t before = words_[w];
      if (before == 0) continue;
      const std::uint64_t after = before & other.word_at(w);
      const std::uint64_t gone = before ^ after;
      if (gone != 0) {
        any |= gone;
        if (diff != nullptr) note(w, gone);
        words_[w] = after;
        if (!summary_.empty() && after == 0) summary_clear(w);
      }
    }
    if (diff != nullptr) diff->account();
    maybe_sparsify();
    return any;
  }

  // Dense x dense full-span: hand the whole payload to the word kernel.
  if (diff != nullptr) {
    if (diff->sparse_) diff->densify();
    any = wk::and_diff(words_.data(), other.words_.data(),
                       diff->words_.data(), words_.size());
    if (!diff->summary_.empty()) diff->rebuild_summary();
  } else {
    any = wk::and_changed(words_.data(), other.words_.data(), words_.size());
  }
  if (!summary_.empty() && any != 0) rebuild_summary();
  if (diff != nullptr) {
    diff->maybe_sparsify();
    diff->account();
  }
  maybe_sparsify();
  return any;
}

ProcSet& ProcSet::operator&=(const ProcSet& other) {
  intersect_core(other, nullptr);
  return *this;
}

bool ProcSet::intersect_changed(const ProcSet& other) {
  return intersect_core(other, nullptr) != 0;
}

bool ProcSet::intersect_diff(const ProcSet& other, ProcSet& removed) {
  return intersect_core(other, &removed) != 0;
}

void ProcSet::or_word(std::size_t w, std::uint64_t v) {
  if (v == 0) return;
  if (!sparse_) {
    words_[w] |= v;
    if (!summary_.empty()) summary_set(w);
    return;
  }
  const auto wi = static_cast<std::uint32_t>(w);
  const auto it = std::lower_bound(sidx_.begin(), sidx_.end(), wi);
  const auto pos = static_cast<std::size_t>(it - sidx_.begin());
  if (it != sidx_.end() && *it == wi) {
    sval_[pos] |= v;
    return;
  }
  sidx_.insert(it, wi);
  sval_.insert(sval_.begin() + static_cast<std::ptrdiff_t>(pos), v);
}

void ProcSet::or_word_at_sparse(std::size_t w, std::uint64_t v) {
  or_word(w, v);
  if (sparse_) {
    maybe_densify_for_growth(sidx_.size());
    account();
  }
}

ProcSet& ProcSet::or_assign_slow(const ProcSet& other) {
  if (other.sparse_) {
    for (std::size_t i = 0; i < other.sidx_.size(); ++i) {
      or_word(other.sidx_[i], other.sval_[i]);
    }
    if (sparse_) {
      maybe_densify_for_growth(sidx_.size());
      account();
    }
    return *this;
  }
  if (sparse_) densify();
  wk::or_inplace(words_.data(), other.words_.data(), words_.size());
  if (!summary_.empty()) {
    if (other.summary_.size() == summary_.size()) {
      for (std::size_t s = 0; s < summary_.size(); ++s) {
        summary_[s] |= other.summary_[s];
      }
    } else {
      rebuild_summary();
    }
  }
  return *this;
}

ProcSet& ProcSet::operator-=(const ProcSet& other) {
  SSKEL_REQUIRE(n_ == other.n_);
  if (sparse_) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < sidx_.size(); ++i) {
      const std::uint64_t after = sval_[i] & ~other.word_at(sidx_[i]);
      if (after != 0) {
        sidx_[out] = sidx_[i];
        sval_[out] = after;
        ++out;
      }
    }
    sidx_.resize(out);
    sval_.resize(out);
    return *this;
  }
  if (other.sparse_) {
    // Only the subtrahend's active blocks can remove anything.
    for (std::size_t i = 0; i < other.sidx_.size(); ++i) {
      const std::size_t w = other.sidx_[i];
      if (words_[w] == 0) continue;
      words_[w] &= ~other.sval_[i];
      if (!summary_.empty() && words_[w] == 0) summary_clear(w);
    }
    maybe_sparsify();
    return *this;
  }
  if (!summary_.empty() && active_words() * 4 <= words_.size()) {
    walk_blocks(summary_, [&](std::size_t w) {
      words_[w] &= ~other.words_[w];
      if (words_[w] == 0) summary_clear(w);
      return true;
    });
    maybe_sparsify();
    return *this;
  }
  wk::andnot_inplace(words_.data(), other.words_.data(), words_.size());
  if (!summary_.empty()) rebuild_summary();
  maybe_sparsify();
  return *this;
}

void ProcSet::or_and(const ProcSet& src, const ProcSet& mask) {
  SSKEL_REQUIRE(n_ == src.n_);
  SSKEL_REQUIRE(n_ == mask.n_);
  if (src.sparse_ || mask.sparse_) {
    // Walk the (smaller) sparse operand; the fold can only set bits in
    // blocks active on both sides.
    const bool walk_mask =
        !src.sparse_ ||
        (mask.sparse_ && mask.sidx_.size() < src.sidx_.size());
    const ProcSet& walk = walk_mask ? mask : src;
    const ProcSet& peer = walk_mask ? src : mask;
    for (std::size_t i = 0; i < walk.sidx_.size(); ++i) {
      const std::size_t w = walk.sidx_[i];
      or_word(w, walk.sval_[i] & peer.word_at(w));
    }
    if (sparse_) {
      maybe_densify_for_growth(sidx_.size());
      account();
    }
    return;
  }
  if (sparse_) {
    if (!src.summary_.empty() && src.summary_.size() == mask.summary_.size()) {
      for (std::size_t s = 0; s < src.summary_.size(); ++s) {
        std::uint64_t bits = src.summary_[s] & mask.summary_[s];
        while (bits != 0) {
          const auto j = static_cast<std::size_t>(std::countr_zero(bits));
          bits &= bits - 1;
          const std::size_t w = s * 64 + j;
          or_word(w, src.words_[w] & mask.words_[w]);
        }
      }
      maybe_densify_for_growth(sidx_.size());
      account();
      return;
    }
    densify();
  }
  wk::or_and(words_.data(), src.words_.data(), mask.words_.data(),
             words_.size());
  if (!summary_.empty()) rebuild_summary();
}

bool ProcSet::operator==(const ProcSet& other) const {
  if (n_ != other.n_) return false;
  if (sparse_ == other.sparse_) {
    if (sparse_) return sidx_ == other.sidx_ && sval_ == other.sval_;
    return words_ == other.words_;
  }
  const ProcSet& s = sparse_ ? *this : other;
  const ProcSet& d = sparse_ ? other : *this;
  std::size_t i = 0;
  for (std::size_t w = 0; w < d.words_.size(); ++w) {
    std::uint64_t expected = 0;
    if (i < s.sidx_.size() && s.sidx_[i] == w) {
      expected = s.sval_[i];
      ++i;
    }
    if (d.words_[w] != expected) return false;
  }
  return i == s.sidx_.size();
}

ProcId ProcSet::first_slow() const {
  if (sparse_) {
    if (sidx_.empty()) return -1;
    return word_bit_to_proc(sidx_[0], sval_[0]);
  }
  // Dense with a summary tier (the summary-free dense case resolved
  // inline).
  ProcId found = -1;
  walk_blocks(summary_, [&](std::size_t w) {
    found = word_bit_to_proc(w, words_[w]);
    return false;  // first active block wins
  });
  return found;
}

ProcId ProcSet::next_after_slow(ProcId q) const {
  const std::size_t wq = word(q);
  const std::uint64_t low_mask = ~std::uint64_t{0} << bit(q);
  if (sparse_) {
    const auto it = std::lower_bound(sidx_.begin(), sidx_.end(),
                                     static_cast<std::uint32_t>(wq));
    std::size_t i = static_cast<std::size_t>(it - sidx_.begin());
    if (i < sidx_.size() && sidx_[i] == wq) {
      const std::uint64_t v = sval_[i] & low_mask;
      if (v != 0) return word_bit_to_proc(wq, v);
      ++i;
    }
    if (i >= sidx_.size()) return -1;
    return word_bit_to_proc(sidx_[i], sval_[i]);
  }
  {
    const std::uint64_t v = words_[wq] & low_mask;
    if (v != 0) return word_bit_to_proc(wq, v);
  }
  if (!summary_.empty()) {
    // Skip straight to the next active block via the summary tier.
    std::size_t from = wq + 1;
    if (from >= words_.size()) return -1;
    std::size_t s = from / 64;
    std::uint64_t bits = summary_[s] & (~std::uint64_t{0} << (from % 64));
    while (true) {
      if (bits != 0) {
        const auto j = static_cast<std::size_t>(std::countr_zero(bits));
        const std::size_t w = s * 64 + j;
        return word_bit_to_proc(w, words_[w]);
      }
      if (++s >= summary_.size()) return -1;
      bits = summary_[s];
    }
  }
  for (std::size_t w = wq + 1; w < words_.size(); ++w) {
    if (words_[w] != 0) return word_bit_to_proc(w, words_[w]);
  }
  return -1;
}

std::vector<ProcId> ProcSet::to_vector() const {
  std::vector<ProcId> out;
  out.reserve(static_cast<std::size_t>(count()));
  for (ProcId p : *this) out.push_back(p);
  return out;
}

std::string ProcSet::to_string() const {
  std::ostringstream os;
  os << '{';
  bool first_member = true;
  for (ProcId p : *this) {
    if (!first_member) os << ", ";
    os << 'p' << p;
    first_member = false;
  }
  os << '}';
  return os.str();
}

std::uint64_t ProcSet::hash() const {
  // FNV-1a over the nonzero (index, word) pairs: density-proportional
  // and identical across the dense, summarized, and sparse forms.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for_each_word([&](std::uint32_t w, std::uint64_t v) {
    h ^= w;
    h *= 0x100000001b3ULL;
    h ^= v;
    h *= 0x100000001b3ULL;
  });
  return h;
}

std::size_t ProcSet::active_words() const {
  if (sparse_) return sidx_.size();
  if (!summary_.empty()) {
    return static_cast<std::size_t>(
        wk::popcount(summary_.data(), summary_.size()));
  }
  std::size_t active = 0;
  for (std::uint64_t w : words_) active += (w != 0) ? 1 : 0;
  return active;
}

void ProcSet::compact() {
  if (!sparse_) maybe_sparsify();
}

void ProcSet::rebuild_summary() {
  summary_.assign((words_.size() + 63) / 64, 0);
  wk::build_summary(words_.data(), words_.size(), summary_.data());
}

void ProcSet::densify() {
  SSKEL_REQUIRE(sparse_);
  words_ = arena_acquire(word_count(n_));
  const bool summarize = word_count(n_) >= tier_threshold_words();
  if (summarize) summary_.assign((words_.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < sidx_.size(); ++i) {
    words_[sidx_[i]] = sval_[i];
    if (summarize) summary_set(sidx_[i]);
  }
  sidx_ = std::vector<std::uint32_t>{};
  sval_ = std::vector<std::uint64_t>{};
  sparse_ = false;
  account();
}

void ProcSet::sparsify() {
  SSKEL_REQUIRE(!sparse_);
  const std::size_t active = active_words();
  sidx_.clear();
  sval_.clear();
  sidx_.reserve(active);
  sval_.reserve(active);
  for_each_word([&](std::uint32_t w, std::uint64_t v) {
    sidx_.push_back(w);
    sval_.push_back(v);
  });
  arena_release(std::move(words_));
  words_ = std::vector<std::uint64_t>{};
  summary_ = std::vector<std::uint64_t>{};
  sparse_ = true;
  account();
}

void ProcSet::maybe_sparsify() {
  if (sparse_ || !tiered()) return;
  // Adopt the block list once at most 1/8 of the payload is active;
  // re-densification waits for 1/4 (hysteresis against flapping).
  if (active_words() * 8 <= words_.size()) sparsify();
}

void ProcSet::maybe_densify_for_growth(std::size_t projected_blocks) {
  if (!sparse_) return;
  if (projected_blocks * 4 > word_count(n_)) densify();
}

void ProcSet::trim() {
  const unsigned rem = static_cast<unsigned>(n_) % kBits;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << rem) - 1;
  }
}

}  // namespace sskel
