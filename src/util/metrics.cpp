#include "util/metrics.hpp"

#include <array>
#include <atomic>
#include <mutex>
#include <vector>

namespace sskel::metrics {
namespace {

constexpr std::size_t slot(Counter c) { return static_cast<std::size_t>(c); }
constexpr std::size_t kCounterCount = slot(Counter::kGraphsConstructed) + 1;

struct Block;

struct Registry {
  std::mutex mu;
  std::vector<Block*> blocks;                         // guarded by mu
  std::array<std::int64_t, kCounterCount> retired{};  // guarded by mu
};

/// Never destroyed: a thread's block may retire after static
/// destructors have started.
Registry& registry() {
  static Registry* const r = new Registry();
  return *r;
}

/// Published part of the live-bytes total and its high-water mark,
/// each on its own cache line so peak reads never share a line with
/// publishes.
alignas(64) constinit std::atomic<std::int64_t> g_published_live{0};
alignas(64) constinit std::atomic<std::int64_t> g_peak_live{0};

void raise_peak(std::int64_t candidate) {
  std::int64_t peak = g_peak_live.load(std::memory_order_relaxed);
  while (candidate > peak &&
         !g_peak_live.compare_exchange_weak(peak, candidate,
                                            std::memory_order_relaxed)) {
  }
}

/// Lands a delta whose thread has no block any more.
void retire(Counter c, std::int64_t delta) {
  if (c == Counter::kProcSetLiveBytes) {
    const std::int64_t published =
        g_published_live.fetch_add(delta, std::memory_order_relaxed) + delta;
    if (delta > 0) raise_peak(published);
  }
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  r.retired[slot(c)] += delta;
}

// Both trivially destructible, so they stay readable while the
// thread's other thread_local destructors run (the block's included).
constinit thread_local Block* t_block = nullptr;
constinit thread_local bool t_block_gone = false;

struct Block {
  std::array<std::atomic<std::int64_t>, kCounterCount> slots{};
  std::int64_t unpublished_live = 0;  // owner thread only

  Block() {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.blocks.push_back(this);
  }
  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;
  ~Block() {
    t_block = nullptr;
    t_block_gone = true;
    g_published_live.fetch_add(unpublished_live, std::memory_order_relaxed);
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      r.retired[i] += slots[i].load(std::memory_order_relaxed);
    }
    std::erase(r.blocks, this);
  }

  void add(Counter c, std::int64_t delta) {
    std::atomic<std::int64_t>& s = slots[slot(c)];
    s.store(s.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
    if (c != Counter::kProcSetLiveBytes) return;
    unpublished_live += delta;
    if (unpublished_live >= kPublishBytes ||
        unpublished_live <= -kPublishBytes) {
      const std::int64_t published =
          g_published_live.fetch_add(unpublished_live,
                                     std::memory_order_relaxed) +
          unpublished_live;
      unpublished_live = 0;
      if (delta > 0) raise_peak(published);
      return;
    }
    if (delta > 0) {
      raise_peak(g_published_live.load(std::memory_order_relaxed) +
                 unpublished_live);
    }
  }
};

Block* this_thread_block() {
  if (t_block != nullptr) return t_block;
  if (t_block_gone) return nullptr;
  thread_local Block block;
  t_block = &block;
  return t_block;
}

}  // namespace

void add(Counter c, std::int64_t delta) {
  if (Block* b = this_thread_block(); b != nullptr) {
    b->add(c, delta);
    return;
  }
  retire(c, delta);
}

std::int64_t total(Counter c) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  std::int64_t sum = r.retired[slot(c)];
  for (const Block* b : r.blocks) {
    sum += b->slots[slot(c)].load(std::memory_order_relaxed);
  }
  return sum;
}

std::int64_t peak_live_bytes() {
  return g_peak_live.load(std::memory_order_relaxed);
}

void reset_peak_live_bytes() {
  g_peak_live.store(total(Counter::kProcSetLiveBytes),
                    std::memory_order_relaxed);
}

}  // namespace sskel::metrics
