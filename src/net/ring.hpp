// Lock-free frag-metadata ring buffers: the transport between
// TilePlane's dispatcher and worker threads (net/tile.hpp,
// DESIGN.md §12).
//
// The layout follows the firedancer/tango mcache+dcache split. A
// FragRing is two arrays:
//
//   * the *mcache*: a power-of-two ring of cache-line-aligned FragMeta
//     descriptors, each tagged with the sequence number it currently
//     carries. The producer publishes frag seq s into line s & (depth-1)
//     with a release store of the seq tag as the last write; a consumer
//     polling for seq s acquire-loads that line's tag and compares:
//       tag == s          -> frag s is ready,
//       tag <  s (wrapped)-> nothing published yet,
//       tag >  s          -> the consumer was lapped (seq overrun).
//     Comparisons use wraparound-safe signed sequence arithmetic, so
//     the ring survives 2^64 rollover.
//
//   * the *dcache*: a separate array of typed payload slots, one per
//     descriptor line. Metadata carries the slot index instead of the
//     payload, so the payload type is free and the descriptor stays
//     one cache line.
//
// Safety contract: a consumer may dereference a frag's payload only
// when the producer is credit-gated on that consumer's FlowSeq
// (net/fctl.hpp) — then the producer provably cannot rewrite the line
// or the slot before the consumer advances, and the release/acquire
// pair on the seq tag makes the payload writes visible. Without flow
// control the ring still detects overruns from the seq tag alone
// (kOverrun, payload untouched); speculative payload reads after an
// overrun window are not offered because they cannot be made race-free
// for non-trivial payload types.
//
// Single producer per ring. Multiple producers use one ring each plus
// a RingMux on the consumer side — the tango netmux pattern — which
// preserves per-producer order and needs no CAS anywhere.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/assert.hpp"

namespace sskel {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Wraparound-safe sequence compare: a - b as a signed distance.
[[nodiscard]] constexpr std::int64_t seq_diff(std::uint64_t a,
                                              std::uint64_t b) {
  return static_cast<std::int64_t>(a - b);
}
[[nodiscard]] constexpr bool seq_lt(std::uint64_t a, std::uint64_t b) {
  return seq_diff(a, b) < 0;
}

/// One mcache line. Exactly one cache line so two descriptors never
/// false-share, with the seq tag doubling as the publication flag.
struct alignas(kCacheLineBytes) FragMeta {
  std::atomic<std::uint64_t> seq{0};
  std::uint32_t slot = 0;  // dcache index of the payload
};
static_assert(sizeof(FragMeta) == kCacheLineBytes);

/// A consumer's view of one frag: descriptor fields copied out of the
/// mcache line at poll time.
struct Frag {
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;
};

enum class PollStatus : std::uint8_t {
  kEmpty,    // nothing published at the cursor yet
  kFrag,     // one frag copied out; cursor advanced
  kOverrun,  // producer lapped the cursor; cursor resynced forward
};

/// Seq-tagged descriptor ring plus typed payload slots; single
/// producer, any number of independent (per-cursor) consumers.
template <typename Payload>
class FragRing {
 public:
  /// `depth` descriptor lines (rounded up to a power of two, min 4),
  /// one payload slot each. Slot lifetime is the producer's contract,
  /// not the ring's: a producer recycles a slot only after every
  /// reliable consumer provably drained it (flow control).
  explicit FragRing(std::size_t depth)
      : depth_(ceil_pow2(depth < 4 ? 4 : depth)),
        mask_(depth_ - 1),
        lines_(depth_),
        payloads_(depth_) {
    // Seed line tags to "one lap below" their first carried seq, so a
    // fresh cursor at seq s reads tag s - depth: strictly seq_lt, i.e.
    // kEmpty, never a bogus frag or overrun.
    for (std::size_t i = 0; i < depth_; ++i) {
      lines_[i].seq.store(static_cast<std::uint64_t>(i) - depth_,
                          std::memory_order_relaxed);
    }
  }

  FragRing(const FragRing&) = delete;
  FragRing& operator=(const FragRing&) = delete;
  // Moves transfer the whole mcache/dcache storage (vector moves —
  // no FragMeta, hence no atomic, is moved individually). Only safe
  // with no concurrent producer or consumer, i.e. at plane setup.
  FragRing(FragRing&&) noexcept = default;
  FragRing& operator=(FragRing&&) noexcept = default;

  [[nodiscard]] std::size_t depth() const { return depth_; }
  [[nodiscard]] std::size_t payload_slots() const { return payloads_.size(); }

  /// Producer-side sequence of the next frag to publish.
  [[nodiscard]] std::uint64_t seq_produced() const { return seq_next_; }

  /// Producer-side payload slot access (write before publish).
  [[nodiscard]] Payload& payload(std::uint32_t slot) {
    return payloads_[slot];
  }
  [[nodiscard]] const Payload& payload(std::uint32_t slot) const {
    return payloads_[slot];
  }

  /// Publishes the next frag, whose payload is in `slot`: writes the
  /// descriptor, then release-stores the seq tag so a consumer that
  /// observes the tag observes everything the producer wrote before it
  /// (descriptor and payload alike). Returns the published seq.
  std::uint64_t publish(std::uint32_t slot) {
    const std::uint64_t seq = seq_next_++;
    FragMeta& line = lines_[static_cast<std::size_t>(seq) & mask_];
    line.slot = slot;
    line.seq.store(seq, std::memory_order_release);
    return seq;
  }

  /// A consumer's position in the ring. Cursors are independent; each
  /// consumer owns one and polls with it.
  struct Cursor {
    std::uint64_t seq = 0;
    std::int64_t overruns = 0;  // laps detected (diagnostics/tests)
  };

  /// Polls for the cursor's next frag. kFrag copies the descriptor
  /// into `out` and advances the cursor; kOverrun resyncs the cursor
  /// to the oldest still-live line (skipped frags are lost, counted in
  /// cursor.overruns) without touching any payload.
  PollStatus poll(Cursor& cursor, Frag& out) const {
    const FragMeta& line = lines_[static_cast<std::size_t>(cursor.seq) & mask_];
    const std::uint64_t tag = line.seq.load(std::memory_order_acquire);
    if (tag == cursor.seq) {
      out.seq = tag;
      out.slot = line.slot;
      ++cursor.seq;
      return PollStatus::kFrag;
    }
    if (seq_lt(tag, cursor.seq)) return PollStatus::kEmpty;
    // Lapped: the line already carries a later lap. Resync to the
    // oldest seq that can still be live in the ring.
    ++cursor.overruns;
    cursor.seq = tag - mask_;
    return PollStatus::kOverrun;
  }

 private:
  [[nodiscard]] static std::size_t ceil_pow2(std::size_t v) {
    std::size_t p = 1;
    while (p < v) p <<= 1U;
    return p;
  }

  std::size_t depth_;
  std::size_t mask_;
  std::vector<FragMeta> lines_;
  std::vector<Payload> payloads_;
  std::uint64_t seq_next_ = 0;
};

/// Consumer-side merge of several single-producer rings (the netmux
/// pattern): polls the attached rings round-robin, preserving each
/// producer's publication order. No synchronization beyond the rings'
/// own seq tags — the mux itself belongs to one consumer thread.
template <typename Payload>
class RingMux {
 public:
  using Ring = FragRing<Payload>;

  /// Attaches a ring; returns its producer index within the mux.
  std::size_t attach(const Ring* ring) {
    inputs_.push_back(Input{ring, typename Ring::Cursor{}});
    return inputs_.size() - 1;
  }

  [[nodiscard]] std::size_t input_count() const { return inputs_.size(); }

  /// Polls each input at most once starting after the last serviced
  /// one (round-robin fairness). kFrag sets `producer` to the input
  /// index the frag came from. Returns kEmpty only after every input
  /// reported empty this sweep; overruns surface as kOverrun with the
  /// producer index (payloads untouched).
  PollStatus poll(Frag& out, std::size_t& producer) {
    const std::size_t count = inputs_.size();
    for (std::size_t step = 0; step < count; ++step) {
      const std::size_t i = (next_ + step) % count;
      const PollStatus status = inputs_[i].ring->poll(inputs_[i].cursor, out);
      if (status == PollStatus::kEmpty) continue;
      producer = i;
      next_ = (i + 1) % count;
      return status;
    }
    return PollStatus::kEmpty;
  }

  [[nodiscard]] std::uint64_t seq_consumed(std::size_t producer) const {
    return inputs_[producer].cursor.seq;
  }
  [[nodiscard]] std::int64_t overruns(std::size_t producer) const {
    return inputs_[producer].cursor.overruns;
  }

 private:
  struct Input {
    const Ring* ring;
    typename Ring::Cursor cursor;
  };
  std::vector<Input> inputs_;
  std::size_t next_ = 0;
};

}  // namespace sskel
