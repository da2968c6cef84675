// A deterministic discrete-event queue.
//
// The net substrate simulates a partially synchronous message-passing
// network under the round abstraction (see net/driver.hpp). Events are
// ordered by simulated time with FIFO tie-breaking on equal
// timestamps (insertion sequence), which keeps runs bit-deterministic
// regardless of how many events collide on a timestamp.
//
// Handlers are stored in a fixed-capacity InlineCallable rather than a
// std::function: every capture lives inside the entry, so scheduling
// an event never allocates. The heap is an explicit vector managed
// with std::push_heap/pop_heap because std::priority_queue requires
// copyable elements and InlineCallable is move-only.
#pragma once

#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/inline_callable.hpp"
#include "util/types.hpp"

namespace sskel {

class EventQueue {
 public:
  /// Capacity covers the capture events of the net driver and the
  /// delivery events of its event-queue oracle (a this-pointer, two
  /// ProcIds, a Round and a flag) with headroom for test lambdas;
  /// anything larger fails to compile at the schedule call site rather
  /// than silently reintroducing heap traffic.
  static constexpr std::size_t kHandlerCapacity = 48;
  using Handler = InlineCallable<kHandlerCapacity>;

  /// Schedules `fn` at absolute time `t` (>= now); returns the event's
  /// tie-breaking seq, so a caller can place other keys relative to it.
  std::uint64_t schedule(SimTime t, Handler fn);

  /// Current simulated time (time of the last executed event).
  [[nodiscard]] SimTime now() const { return now_; }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  // --- external-timer integration ----------------------------------------
  //
  // A driver may run some of its timers outside the heap (e.g. the
  // net driver's strictly periodic round closes live on a calendar,
  // not in the heap). Such timers still participate in the queue's
  // deterministic (time, seq) order: they draw their tie-breaking seq
  // from take_seq() at the moment they would have been scheduled,
  // compare against peek_key() to decide who fires next, and report
  // their firing through advance_now().

  /// (time, seq) key of the earliest pending event; false when empty.
  [[nodiscard]] bool peek_key(SimTime& t, std::uint64_t& seq) const {
    if (heap_.empty()) return false;
    t = heap_.front().time;
    seq = heap_.front().seq;
    return true;
  }

  /// Allocates the next scheduling sequence number without enqueuing.
  [[nodiscard]] std::uint64_t take_seq() { return next_seq_++; }

  /// Advances the clock to `t` (>= now) for an externally-run timer.
  void advance_now(SimTime t) {
    SSKEL_REQUIRE(t >= now_);
    now_ = t;
  }

  /// Executes the earliest event; returns false when none is pending.
  bool step();

  /// Executes events until the queue drains or `limit` events ran.
  /// Returns the number of events executed.
  std::int64_t run(std::int64_t limit);

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    Handler fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  SimTime now_ = 0;
};

}  // namespace sskel
