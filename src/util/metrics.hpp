// Per-thread counter blocks for the library's hot-path counters.
//
// ProcSet storage changes, reachability fixpoints and graph
// constructions happen on every tile at once, so a process-wide
// atomic per counter made every one of them a read-modify-write on a
// cache line shared by all cores. Instead each thread counts into its
// own block: only the owning thread writes a block, with relaxed
// stores, so counting touches no memory another core writes. A read
// sums the registered blocks plus the totals that exited threads left
// behind — the shard idiom of InternDomain::local()/merged_stats().
//
// Contract:
//   * total() is exact once the threads writing the counter are
//     quiescent (joined, or past a synchronization the reader also
//     passed). Work on a thread whose block is already gone (thread_local
//     destructors running after it) goes straight to the exited-thread
//     totals, so it is never lost.
//   * kProcSetLiveBytes also keeps a process-wide high-water mark,
//     peak_live_bytes(). Each thread holds back its live-bytes delta
//     until it reaches kPublishBytes in either direction, then adds it
//     to one shared running total. Each growth step raises the peak to
//     that total plus the thread's own unpublished delta. The peak is
//     therefore exact on one thread and within
//     (threads - 1) x kPublishBytes otherwise, and
//     reset_peak_live_bytes() takes effect on every thread at once.
//   * Counting does no read-modify-write on shared memory except the
//     publish, the peak raise, a thread's one-time block registration
//     and the rare deltas that arrive after its block is gone.
#pragma once

#include <cstdint>

namespace sskel::metrics {

enum class Counter : std::uint8_t {
  kProcSetLiveBytes,          ///< heap bytes owned by ProcSet storage
  kProcSetArenaBytes,         ///< dense payload bytes parked in word arenas
  kProcSetArenaReuses,        ///< dense payloads served from an arena
  kReachabilityComputations,  ///< reachability fixpoints and BFS runs
  kGraphsConstructed,         ///< Digraph constructions that allocated
};

/// Live-bytes delta a thread may hold back from the shared total.
inline constexpr std::int64_t kPublishBytes = std::int64_t{64} * 1024;

/// Adds `delta` to counter `c` in the calling thread's block.
void add(Counter c, std::int64_t delta);

/// Process total of `c`: every registered block plus exited threads.
[[nodiscard]] std::int64_t total(Counter c);

/// High-water mark of total(kProcSetLiveBytes) since the last reset,
/// within the bound stated above.
[[nodiscard]] std::int64_t peak_live_bytes();

/// Lowers the peak to the current total(kProcSetLiveBytes).
void reset_peak_live_bytes();

}  // namespace sskel::metrics
