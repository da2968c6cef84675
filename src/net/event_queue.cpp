#include "net/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace sskel {

std::uint64_t EventQueue::schedule(SimTime t, Handler fn) {
  SSKEL_REQUIRE(t >= now_);
  SSKEL_REQUIRE(static_cast<bool>(fn));
  const std::uint64_t seq = next_seq_++;
  heap_.push_back(Entry{t, seq, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return seq;
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  // Move the earliest entry to the back and out of the heap before
  // running it, so the handler may schedule further events.
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry entry = std::move(heap_.back());
  heap_.pop_back();
  SSKEL_ASSERT(entry.time >= now_);
  now_ = entry.time;
  entry.fn();
  return true;
}

std::int64_t EventQueue::run(std::int64_t limit) {
  std::int64_t executed = 0;
  while (executed < limit && step()) ++executed;
  return executed;
}

}  // namespace sskel
