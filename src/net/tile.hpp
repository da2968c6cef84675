// Worker tiles: pinned threads joined by frag rings with credit-based
// flow control, multiplexing many concurrent net-backed runs
// (DESIGN.md §12).
//
// Topology (the fd_netmux shape, specialized to a dispatch fan):
//
//   dispatcher ──intake ring──▶ tile 0 ──result ring──▶ ┐
//   dispatcher ──intake ring──▶ tile 1 ──result ring──▶ ├─ RingMux ─▶ dispatcher
//   dispatcher ──intake ring──▶ tile T ──result ring──▶ ┘
//
// Every ring is single-producer (net/ring.hpp); every link is credit
// gated (net/fctl.hpp): the dispatcher cannot overrun a slow tile's
// intake, and a tile cannot overrun the dispatcher's result
// consumption. Tiles publish their consumption watermark on a tick
// pace (TickPacer) — every `lazy` frags and on idle — so the fseq
// cache line stays off the per-frag path, exactly the tempo of
// firedancer's housekeeping ticks.
//
// Work items and results are fixed POD records (TileWork/TileResult):
// the payloads cross threads by value through the dcache, which keeps
// the in-place ring reads race-free under flow control. The work
// function itself runs whole net-backed runs (or any other job) on
// the tile's thread; the plane neither knows nor cares.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "net/fctl.hpp"
#include "net/ring.hpp"
#include "util/topology.hpp"

namespace sskel {

/// Tick-paced housekeeping: returns true every `interval` ticks (and
/// on the first tick), bounding how often slow-path work — watermark
/// publication, stall bookkeeping — interrupts the frag-processing
/// fast path.
class TickPacer {
 public:
  explicit TickPacer(std::int64_t interval)
      : interval_(interval > 0 ? interval : 1) {}

  bool tick() {
    if (++since_ < interval_) return false;
    since_ = 0;
    return true;
  }

  [[nodiscard]] std::int64_t interval() const { return interval_; }

 private:
  std::int64_t interval_;
  std::int64_t since_ = 0;
};

/// One unit of work dispatched to a tile. Meaning of the fields is the
/// work function's contract (the bench uses id/seed/param as run id,
/// RNG seed, and round budget).
struct TileWork {
  std::uint64_t id = 0;
  std::uint64_t seed = 0;
  std::uint64_t param = 0;
};

/// One completed unit, reported back through the tile's result ring.
struct TileResult {
  std::uint64_t id = 0;
  std::int64_t value = 0;
  std::int64_t aux = 0;
};

struct TilePlaneOptions {
  /// Descriptor depth of each intake/result ring (rounded to pow2).
  std::size_t ring_depth = 64;
  /// Housekeeping cadence: a tile publishes its intake watermark every
  /// `lazy` processed frags (and whenever it goes idle).
  std::int64_t lazy = 8;
  /// Pin each tile thread to a CPU (Linux only; a failed pin is
  /// recorded, never fatal — CI runners often forbid affinity
  /// changes). The CPU per tile comes from `cpu_placement` when set,
  /// else from the probed host topology physical-core-first
  /// (util/topology.hpp), so SMT siblings are used only after every
  /// physical core carries a tile.
  bool pin_threads = false;
  /// Explicit CPU id per tile (cycled when shorter than the tile
  /// count). Empty = derive from probe_cpu_topology(). Ignored unless
  /// pin_threads is set.
  std::vector<int> cpu_placement;
};

/// A fixed set of worker tiles executing TileWork items delivered over
/// credit-gated frag rings. The constructor spawns the tiles; the
/// destructor stops and joins them. All public methods belong to the
/// dispatcher thread.
class TilePlane {
 public:
  /// `tile` is the executing tile's index — work functions use it to
  /// address persistent per-tile state (scratch engines) without
  /// thread-local lookups.
  using WorkFn = TileResult (*)(void* ctx, unsigned tile,
                                const TileWork& work);

  TilePlane(unsigned tiles, WorkFn fn, void* ctx,
            TilePlaneOptions options = {});
  ~TilePlane();

  TilePlane(const TilePlane&) = delete;
  TilePlane& operator=(const TilePlane&) = delete;

  [[nodiscard]] unsigned tiles() const;

  /// Publishes one work item to the next tile round-robin, spinning
  /// (with yields) through backpressure until the tile's intake has
  /// credit. Returns the tile index the work went to.
  unsigned submit(const TileWork& work);

  /// Non-blocking submit: scans the tiles round-robin starting at the
  /// next one and publishes to the first intake with credit. Returns
  /// false — without spinning or draining — when every intake is full,
  /// so a streaming dispatcher can keep ring occupancy high while
  /// staying off the backpressure path (each refused intake still
  /// counts one flow-control stall, which is the occupancy signal
  /// adaptive feeders react to).
  bool try_submit(const TileWork& work);

  /// Non-blocking sweep of every tile's result ring; appends drained
  /// results to `out` and returns how many arrived.
  std::size_t drain(std::vector<TileResult>& out);

  /// Submits every item and drains until all results arrived. Results
  /// are appended in completion order; callers needing determinism key
  /// them by TileResult::id (the Monte-Carlo discipline).
  void run_all(const std::vector<TileWork>& work,
               std::vector<TileResult>& out);

  /// Dispatcher-side backpressure events against tile intakes.
  [[nodiscard]] std::int64_t submit_stalls() const;
  /// Tile-side backpressure events against the result rings.
  [[nodiscard]] std::int64_t result_stalls() const;
  /// Frags processed across all tiles.
  [[nodiscard]] std::int64_t frags_processed() const;
  /// Tiles whose CPU pin attempt failed (diagnostics; 0 when pinning
  /// is off).
  [[nodiscard]] unsigned failed_pins() const;
  /// Planned CPU id per tile when pinning is on (empty otherwise).
  /// Entries are the *intended* placement; failed_pins() says how many
  /// of them the OS refused.
  [[nodiscard]] const std::vector<int>& placement() const;

 private:
  struct Tile;
  void tile_main(Tile& tile, const std::stop_token& stop);

  WorkFn fn_;
  void* ctx_;
  TilePlaneOptions options_;
  std::vector<int> placement_;  // CPU per tile; empty when not pinning
  std::vector<std::unique_ptr<Tile>> tiles_;
  RingMux<TileResult> result_mux_;
  std::vector<FlowSeq> result_fseq_;  // dispatcher's consumption marks
  std::vector<TileResult> pending_;   // results drained during submit stalls
  unsigned next_tile_ = 0;
  std::atomic<unsigned> pin_failures_{0};
  std::vector<std::jthread> threads_;  // last member: joins first
};

}  // namespace sskel
