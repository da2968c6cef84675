// Monte-Carlo trial scheduling on worker tiles (DESIGN.md §13).
//
// A Monte-Carlo batch is a seeded left fold: trial t runs with seed
// mix_seed(master, t), and its result folds into McSummary in trial
// order (fold_scenario_trial). McTilePlane is the one scheduler that
// runs that fold, as a persistent *service*:
//
//   * the plane starts and joins its own tile threads. The dispatcher
//     writes each offered trial's seed into a slot of the stream
//     window and release-publishes an offered cursor; an idle tile
//     claims the next offered trial with one compare-exchange on a
//     claim cursor, runs it, and release-stores a completion tag in
//     the slot. No trial waits behind another in a private queue, so
//     a slow tile simply claims fewer trials;
//   * each tile owns persistent worker state — its ProcSet word arena
//     and a reusable engine/scenario scratch
//     (ScenarioFactory::make_scratch) — so a trial resets hot
//     structures instead of reconstructing them. The plane lends its
//     trials no intern domain: a caller's KSetRunConfig::intern passes
//     through unchanged (tile threads live across batches, so its
//     InternDomain::local() shard is stable per tile);
//   * tiles are placed physical-core-first from the probed host
//     topology when pinning is enabled (util/topology.hpp), and the
//     effective placement + failed pin count surface in McSummary.
//
// Determinism: results land in the trial's window slot, and the
// dispatcher acquire-reads the completion tags in trial order and
// folds the contiguous completed prefix. McSummary's trial-derived
// fields are therefore bit-identical across tile counts and to a
// serial fold of the same trials (tests/oracles/serial_trials.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stop_token>
#include <thread>
#include <vector>

#include "mc/montecarlo.hpp"
#include "mc/scenario.hpp"

namespace sskel {

/// SSKEL_THREADS, the single concurrency knob, applied to a tile
/// count. requested == 0 takes a positive SSKEL_THREADS clamped to
/// the hardware concurrency, or the hardware concurrency itself when
/// the variable is unset (either way at least 1, even when `hardware`
/// reports 0). An explicit request is *capped* by a positive
/// SSKEL_THREADS but NOT hardware-clamped — oversubscribed tile counts
/// are a deliberate testing configuration (4 tiles on a 1-core host
/// must stay 4 unless the env says less). Empty, zero, negative or
/// unparsable values count as unset; trailing whitespace is allowed.
/// Pure; exposed for unit tests.
[[nodiscard]] unsigned tiles_from_env_value(unsigned requested,
                                            const char* value,
                                            unsigned hardware);

/// tiles_from_env_value against the live SSKEL_THREADS (re-read per
/// call) and the hardware concurrency.
[[nodiscard]] unsigned resolve_tile_count(unsigned requested);

struct McPlaneOptions {
  /// Worker tiles. 0 = resolve from SSKEL_THREADS / hardware
  /// concurrency; explicit values are still capped by SSKEL_THREADS
  /// (resolve_tile_count — the single concurrency knob).
  unsigned tiles = 0;
  /// Pin each tile thread to a CPU (Linux only; a failed pin is
  /// recorded, never fatal — CI runners often forbid affinity
  /// changes). The CPU per tile comes from `cpu_placement` when set,
  /// else from the probed host topology physical-core-first
  /// (util/topology.hpp). Off by default: single-core CI hosts gain
  /// nothing and lose scheduling freedom.
  bool pin_tiles = false;
  /// Explicit CPU per tile (cycled when shorter than the tile count);
  /// empty = derive from the topology. Ignored unless pin_tiles.
  std::vector<int> cpu_placement;
};

/// A persistent Monte-Carlo scheduling service: construct once per
/// scenario, call run() per batch. Tiles and their engine scratch
/// survive between batches, so a trial resets engines instead of
/// reconstructing them. Dispatcher methods (run, the stream face and
/// the counters) belong to one thread at a time.
class McTilePlane {
 public:
  /// run() keeps at most tiles() x kRunWindowPerTile trials in flight.
  static constexpr std::size_t kRunWindowPerTile = 64;

  explicit McTilePlane(const ScenarioFactory& scenario,
                       McPlaneOptions options = {});
  ~McTilePlane();

  McTilePlane(const McTilePlane&) = delete;
  McTilePlane& operator=(const McTilePlane&) = delete;

  /// Runs one batch: trial t gets seed mix_seed(master_seed, t);
  /// aggregates fold in trial order, and `per_trial` fires on the
  /// calling thread right after each trial folds. Trial fields are
  /// bit-identical to a serial fold of the same (scenario, seed,
  /// trials, config). The summary's intern stats are config.intern's
  /// (cumulative over that domain's life), or zero without one.
  [[nodiscard]] McSummary run(std::uint64_t master_seed, int trials,
                              const KSetRunConfig& config,
                              const TrialCallback& per_trial = {});

  // -------------------------------------------------------------------
  // Streaming feed (DESIGN.md §15). run() is itself built on this: a
  // batch is a stream whose window holds kRunWindowPerTile trials per
  // tile, so the result slots stay bounded however long the batch
  // runs. The campaign engine drives the stream directly so trials
  // flow into the window from a persistent cursor — the plane never
  // tears down between batches, and the dispatcher folds the
  // contiguous completed prefix in trial order, which is what makes
  // checkpoint/resume bit-exact (the folded prefix *is* the state).
  // -------------------------------------------------------------------

  /// Receives trial `index`'s result once every lower-indexed trial in
  /// the stream has been delivered too (contiguous, in index order).
  /// `elapsed_ns` is the tile-side wall time of run_trial — the
  /// campaign's runtime-outlier detector feeds on it; it is the one
  /// nondeterministic output and must not influence folded state.
  using StreamSink = std::function<void(
      std::uint64_t index, const ScenarioTrial& trial, std::int64_t elapsed_ns)>;

  /// Opens a stream of sequentially indexed trials starting at
  /// `first_index`, with at most `window` trials in flight. Binds the
  /// run config for every trial of the stream. No stream or batch may
  /// already be active.
  void stream_begin(const KSetRunConfig& config, std::size_t window,
                    std::uint64_t first_index = 0);

  /// Offers trial `index` (must be the next sequential index) with its
  /// seed. Non-blocking: returns false — and consumes nothing — when
  /// the in-flight window is full; the caller should collect and
  /// retry. Never spins.
  [[nodiscard]] bool stream_offer(std::uint64_t index, std::uint64_t seed);

  /// Invokes `sink` for each contiguous next-in-order completed trial.
  /// Returns how many trials reached the sink.
  std::size_t stream_collect(const StreamSink& sink);

  /// Blocks (yielding) until every in-flight trial has reached `sink`.
  void stream_flush(const StreamSink& sink);

  /// Waits for in-flight trials but discards their results — the
  /// "kill" path: a campaign stopping at a checkpoint boundary drops
  /// everything past the folded prefix, exactly what a crash would.
  void stream_abort();

  /// Closes the stream. All offered trials must have been collected
  /// (or aborted).
  void stream_end();

  /// Trials offered but not yet collected.
  [[nodiscard]] std::int64_t stream_in_flight() const {
    return static_cast<std::int64_t>(next_offer_ - next_collect_);
  }

  /// Writes the service-level fields (the bound config's intern stats,
  /// zero without a domain; ProcSet memory marks; tile provenance)
  /// into `summary` — the fields run() sets after folding, exported so
  /// streaming callers can finish a summary the same way.
  void export_service_fields(McSummary& summary) const;

  [[nodiscard]] unsigned tiles() const {
    return static_cast<unsigned>(scratch_.size());
  }
  /// Tiles whose CPU pin attempt failed (0 when pinning is off).
  [[nodiscard]] unsigned failed_pins() const {
    return pin_failures_.load(std::memory_order_relaxed);
  }
  /// Planned CPU id per tile when pinning is on (empty otherwise).
  /// Entries are the *intended* placement; failed_pins() says how many
  /// of them the OS refused.
  [[nodiscard]] const std::vector<int>& placement() const {
    return placement_;
  }
  /// Offers refused because the stream window was full.
  [[nodiscard]] std::int64_t submit_stalls() const { return refused_offers_; }
  /// Always 0: a tile stores its result in the trial's own window slot
  /// and never waits to hand it back. Kept because perfbench reads it
  /// into mc.result_stalls.
  [[nodiscard]] static constexpr std::int64_t result_stalls() { return 0; }
  /// Trials the tiles have claimed since construction. A claimed trial
  /// always runs to completion, so once no stream has trials in flight
  /// this is the number of trials executed.
  [[nodiscard]] std::int64_t trials_executed() const {
    return static_cast<std::int64_t>(
        claimed_.load(std::memory_order_relaxed));
  }

 private:
  /// One window slot. The dispatcher writes `seed` before publishing
  /// the trial through offered_; the claiming tile writes `trial` and
  /// `elapsed_ns` and then release-stores seq + 1 into `done`, which
  /// the dispatcher acquire-reads before touching them. Cache-line
  /// aligned so neighbouring slots' tiles do not share a line.
  struct alignas(64) Slot {
    std::uint64_t seed = 0;
    std::int64_t elapsed_ns = 0;
    ScenarioTrial trial;
    std::atomic<std::uint64_t> done{0};
  };

  void tile_main(unsigned tile, const std::stop_token& stop);
  void run_claimed(unsigned tile, std::uint64_t seq);

  const ScenarioFactory* scenario_;
  /// Per-tile engine/scenario scratch (index = tile).
  std::vector<std::unique_ptr<ScenarioFactory::Scratch>> scratch_;
  std::vector<int> placement_;  // CPU per tile; empty when not pinning
  std::atomic<unsigned> pin_failures_{0};

  /// The open stream, written only by stream_begin. Tiles read it only
  /// for a trial they claimed, and a claim succeeds only on a sequence
  /// number the dispatcher published after stream_begin returned.
  KSetRunConfig stream_config_;
  /// The window: trial seq lives in slot seq % window while in flight
  /// (unique — the window bound keeps two live trials apart), and its
  /// report stays there until the slot is reused.
  std::vector<Slot> slots_;
  std::uint64_t stream_base_ = 0;  // seq of the stream's first trial
  std::uint64_t first_index_ = 0;  // trial index of stream_base_

  /// Dispatcher-side cursors over the plane-wide trial sequence, which
  /// never resets between streams: [next_collect_, next_offer_) is in
  /// flight.
  std::uint64_t next_offer_ = 0;
  std::uint64_t next_collect_ = 0;
  std::int64_t refused_offers_ = 0;
  bool streaming_ = false;

  /// Published sequence: every seq below it has its slot written.
  alignas(64) std::atomic<std::uint64_t> offered_{0};
  /// Claimed sequence: every seq below it belongs to a tile. Never
  /// above offered_, and like it never reset, so a compare-exchange a
  /// tile prepared in an earlier stream cannot succeed in a later one.
  alignas(64) std::atomic<std::uint64_t> claimed_{0};

  std::vector<std::jthread> threads_;  // last member: joins first
};

}  // namespace sskel
