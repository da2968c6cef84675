// Credit-based flow control between frag producers and consumers
// (DESIGN.md §12), after firedancer's fd_fctl. It gates TilePlane's
// intake and result rings (net/tile.hpp), whose producer and consumer
// are different threads.
//
// Each reliable consumer exposes a FlowSeq — a cache-line-aligned,
// atomically published "I have fully consumed every frag below this
// sequence" watermark. The producer side (FlowControl) turns those
// watermarks into a credit budget against its ring depth:
//
//   credits = depth - max over consumers (seq_next - fseq_consumer)
//
// i.e. the number of frags the producer can still publish before the
// slowest reliable consumer's unread window would be overwritten. The
// producer decrements a cached credit counter per publish and re-reads
// the consumer watermarks only when the cache runs dry (a low-water
// refill, keeping the fseq cache lines out of the publish hot path).
// acquire() returning false is backpressure: the ring is full from the
// slowest consumer's point of view, and the producer must drain, spin,
// or otherwise let the consumer catch up. Stall counters feed the
// bench JSON (the `credit_stall_submit`/`credit_stall_result` fields
// of BENCH_network.json and BENCH_mc.json) and the regression gate.
//
// The consumer publishes its watermark with a release store so the
// producer's acquire-refill observes every payload read the consumer
// performed first — this pairing is what makes in-place payload reads
// on a credit-gated ring race-free (see net/ring.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "net/ring.hpp"
#include "util/assert.hpp"

namespace sskel {

/// A consumer-published consumption watermark. Own cache line so the
/// producer's polling never false-shares with neighboring state.
struct alignas(kCacheLineBytes) FlowSeq {
  std::atomic<std::uint64_t> seq{0};

  /// Consumer side: everything below `consumed` has been fully read.
  void publish(std::uint64_t consumed) {
    seq.store(consumed, std::memory_order_release);
  }
  /// Producer side (used by FlowControl's refill).
  [[nodiscard]] std::uint64_t read() const {
    return seq.load(std::memory_order_acquire);
  }
};
static_assert(sizeof(FlowSeq) == kCacheLineBytes);

/// Producer-side credit accounting over one ring and its reliable
/// consumers.
class FlowControl {
 public:
  /// `depth` is the producer ring's descriptor depth: the hard bound
  /// on frags in flight past the slowest reliable consumer.
  explicit FlowControl(std::uint64_t depth) : depth_(depth) {
    SSKEL_REQUIRE(depth > 0);
  }

  /// Registers a reliable consumer's watermark. The FlowSeq must
  /// outlive this FlowControl; registration is setup-time only.
  void add_consumer(const FlowSeq* fseq) {
    SSKEL_REQUIRE(fseq != nullptr);
    consumers_.push_back(fseq);
  }

  [[nodiscard]] std::size_t consumer_count() const {
    return consumers_.size();
  }

  /// Takes one publish credit for the frag about to be published at
  /// `seq_next`. Refills from the consumer watermarks when the cached
  /// budget is dry; returns false — backpressure — when even a fresh
  /// refill yields no credit. The caller retries after making the
  /// consumer progress (draining, spinning, yielding).
  [[nodiscard]] bool acquire(std::uint64_t seq_next) {
    if (credits_ == 0) {
      refill(seq_next);
      if (credits_ == 0) {
        ++stalls_;
        return false;
      }
    }
    --credits_;
    return true;
  }

  /// Recomputes the credit budget from the consumer watermarks.
  void refill(std::uint64_t seq_next) {
    ++refills_;
    std::uint64_t budget = depth_;
    for (const FlowSeq* fseq : consumers_) {
      const std::int64_t in_flight = seq_diff(seq_next, fseq->read());
      SSKEL_ASSERT(in_flight >= 0);
      const std::uint64_t room =
          static_cast<std::uint64_t>(in_flight) >= depth_
              ? 0
              : depth_ - static_cast<std::uint64_t>(in_flight);
      if (room < budget) budget = room;
    }
    credits_ = budget;
  }

  [[nodiscard]] std::uint64_t credits_cached() const { return credits_; }
  /// Backpressure events: acquire() calls that found no credit even
  /// after a refill.
  [[nodiscard]] std::int64_t stalls() const { return stalls_; }
  [[nodiscard]] std::int64_t refills() const { return refills_; }

 private:
  std::uint64_t depth_;
  std::uint64_t credits_ = 0;
  std::int64_t stalls_ = 0;
  std::int64_t refills_ = 0;
  std::vector<const FlowSeq*> consumers_;
};

}  // namespace sskel
