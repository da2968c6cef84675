#include "net/tile.hpp"

#include <atomic>
#include <utility>

#include "util/assert.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace sskel {

namespace {

void pin_current_thread(int cpu, std::atomic<unsigned>& failures) {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    failures.fetch_add(1, std::memory_order_relaxed);
  }
#else
  (void)cpu;
  failures.fetch_add(1, std::memory_order_relaxed);
#endif
}

std::vector<int> resolve_placement(const TilePlaneOptions& options,
                                   unsigned tiles) {
  if (!options.pin_threads) return {};
  std::vector<int> plan;
  if (!options.cpu_placement.empty()) {
    plan.reserve(tiles);
    for (unsigned i = 0; i < tiles; ++i) {
      plan.push_back(options.cpu_placement[i % options.cpu_placement.size()]);
    }
    return plan;
  }
  plan = plan_tile_cpus(probe_cpu_topology(), tiles);
  if (plan.empty()) {  // degenerate probe: fall back to identity
    for (unsigned i = 0; i < tiles; ++i) plan.push_back(static_cast<int>(i));
  }
  return plan;
}

}  // namespace

struct TilePlane::Tile {
  Tile(unsigned tile_index, const TilePlaneOptions& options,
       const FlowSeq* result_mark)
      : index(tile_index),
        intake(options.ring_depth),
        result(options.ring_depth),
        intake_fctl(intake.depth()),
        result_fctl(result.depth()) {
    intake_fctl.add_consumer(&intake_fseq);
    result_fctl.add_consumer(result_mark);
  }

  unsigned index;
  FragRing<TileWork> intake;
  FragRing<TileResult> result;
  /// Published by the tile thread; read by the dispatcher's intake
  /// flow control.
  FlowSeq intake_fseq;
  /// Dispatcher-side credits against this tile's intake.
  FlowControl intake_fctl;
  /// Tile-side credits against the dispatcher's result consumption.
  FlowControl result_fctl;
  /// Tile-thread counters mirrored atomically so the dispatcher can
  /// read them while the tile runs.
  std::atomic<std::int64_t> frags{0};
  std::atomic<std::int64_t> result_stalls{0};
};

TilePlane::TilePlane(unsigned tiles, WorkFn fn, void* ctx,
                     TilePlaneOptions options)
    : fn_(fn),
      ctx_(ctx),
      options_(std::move(options)),
      placement_(resolve_placement(options_, tiles)),
      result_fseq_(tiles) {
  SSKEL_REQUIRE(tiles > 0);
  SSKEL_REQUIRE(fn != nullptr);
  tiles_.reserve(tiles);
  for (unsigned i = 0; i < tiles; ++i) {
    tiles_.push_back(std::make_unique<Tile>(i, options_, &result_fseq_[i]));
    const std::size_t producer = result_mux_.attach(&tiles_[i]->result);
    SSKEL_ASSERT(producer == i);
  }
  threads_.reserve(tiles);
  for (unsigned i = 0; i < tiles; ++i) {
    Tile* tile = tiles_[i].get();
    threads_.emplace_back([this, tile](const std::stop_token& stop) {
      tile_main(*tile, stop);
    });
  }
}

TilePlane::~TilePlane() {
  for (std::jthread& thread : threads_) thread.request_stop();
  // Unblock tiles parked on result-ring backpressure before joining.
  std::vector<TileResult> residue;
  drain(residue);
  threads_.clear();  // joins every tile
}

unsigned TilePlane::tiles() const {
  return static_cast<unsigned>(tiles_.size());
}

void TilePlane::tile_main(Tile& tile, const std::stop_token& stop) {
  if (options_.pin_threads && tile.index < placement_.size()) {
    pin_current_thread(placement_[tile.index], pin_failures_);
  }
  FragRing<TileWork>::Cursor cursor;
  TickPacer pacer(options_.lazy);
  Frag frag;
  while (true) {
    const PollStatus status = tile.intake.poll(cursor, frag);
    if (status == PollStatus::kFrag) {
      // In-place payload read: safe, the dispatcher is credit-gated on
      // intake_fseq and cannot recycle this slot yet.
      const TileWork work = tile.intake.payload(frag.slot);
      if (pacer.tick()) tile.intake_fseq.publish(cursor.seq);
      const TileResult result = fn_(ctx_, tile.index, work);
      while (!tile.result_fctl.acquire(tile.result.seq_produced())) {
        tile.result_stalls.fetch_add(1, std::memory_order_relaxed);
        if (stop.stop_requested()) return;  // shutdown: drop the result
        std::this_thread::yield();
      }
      const auto slot = static_cast<std::uint32_t>(
          tile.result.seq_produced() % tile.result.payload_slots());
      tile.result.payload(slot) = result;
      tile.result.publish(slot);
      tile.frags.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    SSKEL_ASSERT(status == PollStatus::kEmpty);  // credit-gated: no overruns
    tile.intake_fseq.publish(cursor.seq);
    if (stop.stop_requested()) return;
    std::this_thread::yield();
  }
}

unsigned TilePlane::submit(const TileWork& work) {
  const unsigned index = next_tile_;
  next_tile_ = (next_tile_ + 1) % tiles();
  Tile& tile = *tiles_[index];
  while (!tile.intake_fctl.acquire(tile.intake.seq_produced())) {
    // Backpressure: the tile's intake is full. Keep consuming results
    // meanwhile — a tile blocked on its result ring would otherwise
    // deadlock against a dispatcher blocked on its intake ring.
    drain(pending_);
    std::this_thread::yield();
  }
  const auto slot = static_cast<std::uint32_t>(tile.intake.seq_produced() %
                                               tile.intake.payload_slots());
  tile.intake.payload(slot) = work;
  tile.intake.publish(slot);
  return index;
}

bool TilePlane::try_submit(const TileWork& work) {
  for (unsigned offset = 0; offset < tiles(); ++offset) {
    const unsigned index = (next_tile_ + offset) % tiles();
    Tile& tile = *tiles_[index];
    if (!tile.intake_fctl.acquire(tile.intake.seq_produced())) continue;
    const auto slot = static_cast<std::uint32_t>(tile.intake.seq_produced() %
                                                 tile.intake.payload_slots());
    tile.intake.payload(slot) = work;
    tile.intake.publish(slot);
    next_tile_ = (index + 1) % tiles();
    return true;
  }
  return false;
}

std::size_t TilePlane::drain(std::vector<TileResult>& out) {
  std::size_t drained = 0;
  if (&out != &pending_ && !pending_.empty()) {
    drained += pending_.size();
    out.insert(out.end(), pending_.begin(), pending_.end());
    pending_.clear();
  }
  Frag frag;
  std::size_t producer = 0;
  while (result_mux_.poll(frag, producer) == PollStatus::kFrag) {
    out.push_back(tiles_[producer]->result.payload(frag.slot));
    result_fseq_[producer].publish(result_mux_.seq_consumed(producer));
    ++drained;
  }
  return drained;
}

void TilePlane::run_all(const std::vector<TileWork>& work,
                        std::vector<TileResult>& out) {
  const std::size_t base = out.size();
  for (const TileWork& item : work) {
    submit(item);
    drain(out);
  }
  while (out.size() - base < work.size()) {
    if (drain(out) == 0) std::this_thread::yield();
  }
}

std::int64_t TilePlane::submit_stalls() const {
  std::int64_t total = 0;
  for (const auto& tile : tiles_) total += tile->intake_fctl.stalls();
  return total;
}

std::int64_t TilePlane::result_stalls() const {
  std::int64_t total = 0;
  for (const auto& tile : tiles_) {
    total += tile->result_stalls.load(std::memory_order_relaxed);
  }
  return total;
}

std::int64_t TilePlane::frags_processed() const {
  std::int64_t total = 0;
  for (const auto& tile : tiles_) {
    total += tile->frags.load(std::memory_order_relaxed);
  }
  return total;
}

unsigned TilePlane::failed_pins() const {
  return pin_failures_.load(std::memory_order_relaxed);
}

const std::vector<int>& TilePlane::placement() const { return placement_; }

}  // namespace sskel
