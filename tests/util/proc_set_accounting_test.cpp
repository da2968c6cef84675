// Cross-thread contract of ProcSet's memory accounting and of the
// graph counters, which all count into per-thread blocks
// (util/metrics.hpp):
//   * live, arena and count totals are exact once the writing threads
//     are quiescent, whichever thread built or destroyed a set and
//     even when it dies after its own thread's block is gone;
//   * the peak is within (threads - 1) x 64 KiB of the true
//     high-water mark, and a reset on one thread reaches all of them.
// The TSan CI job runs this suite.
#include <gtest/gtest.h>

#include <barrier>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/labeled_digraph.hpp"
#include "util/metrics.hpp"
#include "util/proc_set.hpp"

namespace sskel {
namespace {

constexpr int kWorkers = 3;
/// Tiered at the default threshold (128 words), so payloads cycle
/// through the word arenas.
constexpr ProcId kTieredN = 8192;

/// Universe whose full set holds `bytes` of payload (one bit per
/// process, a multiple of 64 processes).
ProcId universe_of_bytes(std::int64_t bytes) {
  return static_cast<ProcId>(bytes * 8);
}

void join_all(std::vector<std::thread>& threads) {
  for (std::thread& t : threads) t.join();
  threads.clear();
}

TEST(ProcSetAccounting, TotalsExactAcrossThreadsAndThreadExit) {
  const std::int64_t live0 = ProcSet::live_bytes();
  const std::int64_t arena0 = ProcSet::arena_bytes();
  const std::int64_t reuses0 = ProcSet::arena_reuses();

  std::vector<ProcSet> handed[kWorkers];
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&handed, w] {
      // Construction order fixes the exit order (reverse): this
      // thread's counter block goes first, then its arena drops its
      // parked buffer, then `late` destroys its sets. Both of the
      // last two land after the block is gone.
      struct LateSets {
        std::vector<ProcSet> sets;
      };
      thread_local LateSets late;
      ProcSet::release_thread_arena();  // creates the arena, no counts
      {
        const ProcSet parked = ProcSet::full(kTieredN);
      }  // its payload is parked in this thread's arena
      ProcSet grown(kTieredN);
      for (ProcId p = 0; p < kTieredN && grown.is_sparse(); p += 64) {
        grown.insert(p);  // densifies from the parked buffer: one reuse
      }
      late.sets.push_back(ProcSet::full(kTieredN));
      late.sets.push_back(ProcSet::singleton(kTieredN, w));
      handed[w].push_back(std::move(grown));
      handed[w].push_back(ProcSet::full(kTieredN));
      handed[w].push_back(ProcSet::of(64, {1, 2, 3}));
      {
        const ProcSet parked = ProcSet::full(kTieredN);
      }  // parked until the arena's thread-exit destructor
    });
  }
  join_all(threads);
  EXPECT_GT(ProcSet::live_bytes(), live0);  // the handed sets are alive

  threads.emplace_back([&handed] {
    for (std::vector<ProcSet>& sets : handed) sets.clear();
  });
  join_all(threads);

  EXPECT_EQ(ProcSet::live_bytes(), live0);
  EXPECT_EQ(ProcSet::arena_bytes(), arena0);
  EXPECT_EQ(ProcSet::arena_reuses(), reuses0 + kWorkers);
}

TEST(ProcSetAccounting, PeakWithinBoundOfConcurrentHoldings) {
  // Each holding is below the publish step, so none of it reaches the
  // shared total: the peak sees each thread's own holding only, and
  // the documented bound is what separates it from the true sum.
  const ProcId n = universe_of_bytes(40 * 1024);
  const std::int64_t before = ProcSet::live_bytes();
  std::int64_t one = 0;
  {
    const ProcSet set = ProcSet::full(n);
    one = ProcSet::live_bytes() - before;
  }
  ASSERT_LT(one, metrics::kPublishBytes);
  const std::int64_t base = ProcSet::live_bytes();
  ProcSet::reset_peak_bytes();

  std::barrier<> held(kWorkers + 1);
  std::barrier<> release(kWorkers + 1);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&] {
      const ProcSet set = ProcSet::full(n);
      held.arrive_and_wait();
      release.arrive_and_wait();
    });
  }
  held.arrive_and_wait();
  const std::int64_t sum = ProcSet::live_bytes() - base;
  const std::int64_t peak = ProcSet::peak_bytes() - base;
  release.arrive_and_wait();
  join_all(threads);

  // Threads with a block here: the main thread and the workers.
  const std::int64_t bound = kWorkers * metrics::kPublishBytes;
  EXPECT_EQ(sum, kWorkers * one);
  EXPECT_LE(std::llabs(peak - sum), bound)
      << "peak " << peak << " sum " << sum << " bound " << bound;
}

TEST(ProcSetAccounting, ResetOnMainThreadReachesWorkers) {
  // A worker raises the peak high, the main thread resets it, and the
  // same (still running) worker's smaller allocation must then be what
  // the peak reads — not the mark from before the reset.
  const ProcId big = universe_of_bytes(1024 * 1024);
  const ProcId small = universe_of_bytes(256 * 1024);
  std::barrier<> step(2);
  std::int64_t small_bytes = 0;
  std::thread worker([&] {
    {
      const ProcSet set = ProcSet::full(big);
    }
    step.arrive_and_wait();  // 1: big set gone, peak still high
    step.arrive_and_wait();  // 2: main thread has reset the peak
    const std::int64_t before = ProcSet::live_bytes();
    const ProcSet set = ProcSet::full(small);
    small_bytes = ProcSet::live_bytes() - before;
    step.arrive_and_wait();  // 3: holding the small set
    step.arrive_and_wait();  // 4: main thread has read the peak
  });
  step.arrive_and_wait();
  const std::int64_t base = ProcSet::live_bytes();
  const std::int64_t bound = metrics::kPublishBytes;  // two threads
  EXPECT_GE(ProcSet::peak_bytes() - base, 1024 * 1024 - bound);
  ProcSet::reset_peak_bytes();
  EXPECT_EQ(ProcSet::peak_bytes(), base);
  step.arrive_and_wait();
  step.arrive_and_wait();
  const std::int64_t raised = ProcSet::peak_bytes() - base;
  step.arrive_and_wait();
  worker.join();

  EXPECT_GE(small_bytes, 256 * 1024);
  EXPECT_GE(raised, small_bytes - bound);
  EXPECT_LE(raised, small_bytes + bound);
}

TEST(ProcSetAccounting, GraphCountersAddUpAcrossThreads) {
  // Counts one unit of work on this thread first, so the test does not
  // depend on how many graphs or fixpoints the work uses inside.
  const auto work = [] {
    const Digraph g = Digraph::complete(16);
    const Digraph copy = g;
    LabeledDigraph lg(16, 0);
    lg.set_edge(1, 0, 3);
    (void)lg.reaching_set(0);
    (void)lg.strongly_connected();
  };
  const auto fixpoints = [] {
    return metrics::total(metrics::Counter::kReachabilityComputations);
  };
  const std::int64_t graphs0 = Digraph::graphs_constructed();
  const std::int64_t fixpoints0 = fixpoints();
  work();
  const std::int64_t graphs_per = Digraph::graphs_constructed() - graphs0;
  const std::int64_t fixpoints_per = fixpoints() - fixpoints0;
  ASSERT_GT(graphs_per, 0);
  ASSERT_GT(fixpoints_per, 0);

  const std::int64_t graphs1 = Digraph::graphs_constructed();
  const std::int64_t fixpoints1 = fixpoints();
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&work, w] {
      for (int i = 0; i <= w; ++i) work();
    });
  }
  join_all(threads);
  const std::int64_t units = kWorkers * (kWorkers + 1) / 2;  // 1 + 2 + 3
  EXPECT_EQ(Digraph::graphs_constructed() - graphs1, units * graphs_per);
  EXPECT_EQ(fixpoints() - fixpoints1, units * fixpoints_per);
}

}  // namespace
}  // namespace sskel
