// Monte-Carlo trial scheduling on the tile plane (DESIGN.md §13).
//
// A Monte-Carlo batch is a seeded left fold: trial t runs with seed
// mix_seed(master, t), and its result folds into McSummary in trial
// order (fold_scenario_trial). McTilePlane is the one scheduler that
// runs that fold, as a persistent *service* over the §12 tile/ring
// transport:
//
//   * trials flow through the TilePlane's credit-gated submit/result
//     FragRings as TileWork{trial, seed} and come back RingMux-merged,
//     exactly like the multiplexed net runs;
//   * each tile owns persistent worker state — its InternDomain shard
//     (tile threads live across batches, so InternDomain::local() is
//     stable per tile), its ProcSet word arena, and a reusable
//     engine/scenario scratch (ScenarioFactory::make_scratch) — so a
//     trial resets hot structures instead of reconstructing them;
//   * tiles are placed physical-core-first from the probed host
//     topology when pinning is enabled (util/topology.hpp), and the
//     effective placement + failed pin count surface in McSummary.
//
// Determinism: results land in a trial-indexed slot window (the result
// ring carries completion tokens, not payloads — the ring's
// release/acquire ordering makes the slot write visible to the
// dispatcher), and the dispatcher folds the contiguous completed
// prefix in trial order. McSummary's trial-derived fields are
// therefore bit-identical across tile counts and to a serial fold of
// the same trials (tests/oracles/serial_trials.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mc/montecarlo.hpp"
#include "mc/scenario.hpp"
#include "net/tile.hpp"
#include "skeleton/intern.hpp"

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
  /// Intake/result ring depth (tiny values exercise backpressure).
  /// run() keeps at most tiles x ring_depth trials in flight.
  std::size_t ring_depth = 64;
  /// Watermark-publication cadence (TilePlaneOptions::lazy).
  std::int64_t lazy = 8;
  /// Pin tiles physical-core-first from the probed topology (or
  /// `cpu_placement` when set). Off by default: single-core CI hosts
  /// gain nothing and lose scheduling freedom.
  bool pin_tiles = false;
  /// Explicit CPU per tile (cycled); empty = derive from topology.
  std::vector<int> cpu_placement;
};

/// A persistent Monte-Carlo scheduling service: construct once per
/// scenario, call run() per batch. Tiles, their intern shards, and
/// their engine scratch survive between batches — the second batch of
/// a converged scenario runs almost entirely on interned analytics
/// and reset (not reconstructed) engines. Dispatcher methods (run and
/// the counters) belong to one thread at a time.
class McTilePlane {
 public:
  explicit McTilePlane(const ScenarioFactory& scenario,
                       McPlaneOptions options = {});
  ~McTilePlane();

  McTilePlane(const McTilePlane&) = delete;
  McTilePlane& operator=(const McTilePlane&) = delete;

  /// Runs one batch: trial t gets seed mix_seed(master_seed, t);
  /// aggregates fold in trial order, and `per_trial` fires on the
  /// calling thread right after each trial folds. Trial fields are
  /// bit-identical to a serial fold of the same (scenario, seed,
  /// trials, config). When config.intern is null the service's own
  /// persistent domain is used (intern stats in the summary are then
  /// cumulative across this plane's batches — service-level counters,
  /// like the stall counters below).
  [[nodiscard]] McSummary run(std::uint64_t master_seed, int trials,
                              const KSetRunConfig& config,
                              const TrialCallback& per_trial = {});

  // -------------------------------------------------------------------
  // Streaming feed (DESIGN.md §15). run() is itself built on this: a
  // batch is a stream whose window holds one ring's worth of trials
  // per tile, so the result slots stay bounded however long the batch
  // runs. The campaign engine drives the stream directly so trials
  // flow into the submit rings from a persistent cursor — the plane
  // never tears down between batches, and the dispatcher folds the
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
  /// run config for every trial of the stream (a null config.intern is
  /// replaced by the service's persistent domain). No stream or batch
  /// may already be active.
  void stream_begin(const KSetRunConfig& config, std::size_t window,
                    std::uint64_t first_index = 0);

  /// Offers trial `index` (must be the next sequential index) with its
  /// seed. Non-blocking: returns false — and consumes nothing — when
  /// the in-flight window is full or no tile intake has credit; the
  /// caller should collect and retry. Never spins.
  [[nodiscard]] bool stream_offer(std::uint64_t index, std::uint64_t seed);

  /// Drains completed trials and invokes `sink` for each contiguous
  /// next-in-order trial. Returns how many trials reached the sink.
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

  /// Writes the service-level fields (intern stats, ProcSet memory
  /// marks, tile provenance) into `summary` — the fields run()
  /// sets after folding, exported so streaming callers can finish a
  /// summary the same way.
  void export_service_fields(McSummary& summary) const;

  [[nodiscard]] unsigned tiles() const { return plane_.tiles(); }
  [[nodiscard]] unsigned failed_pins() const { return plane_.failed_pins(); }
  [[nodiscard]] const std::vector<int>& placement() const {
    return plane_.placement();
  }
  [[nodiscard]] std::int64_t submit_stalls() const {
    return plane_.submit_stalls();
  }
  [[nodiscard]] std::int64_t result_stalls() const {
    return plane_.result_stalls();
  }
  /// Trials executed by this service since construction.
  [[nodiscard]] std::int64_t trials_executed() const {
    return plane_.frags_processed();
  }

 private:
  static TileResult work_fn(void* ctx, unsigned tile, const TileWork& work);

  /// One stream's shared inputs. Mutated only between streams: every
  /// result of the previous stream is drained (acquire) before the
  /// stream closes, and the new values publish to tiles via the intake
  /// ring's release, so tiles never observe a torn stream.
  struct Batch {
    const KSetRunConfig* config = nullptr;
    std::vector<ScenarioTrial>* results = nullptr;
  };

  const ScenarioFactory* scenario_;
  /// McPlaneOptions::ring_depth; with the tile count it sizes run()'s
  /// stream window.
  std::size_t ring_depth_;
  /// Persistent cross-batch intern domain; tile threads are stable so
  /// each tile keeps one shard for the service's lifetime.
  InternDomain intern_;
  /// Per-tile engine/scenario scratch (index = tile).
  std::vector<std::unique_ptr<ScenarioFactory::Scratch>> scratch_;
  /// Circular in-flight result window: trial i lands in slot
  /// i % window (unique while in flight — the window bound guarantees
  /// no two live trials share a slot).
  std::vector<ScenarioTrial> results_;
  Batch batch_;
  std::vector<TileResult> tokens_;  // drained completion tokens
  /// Streaming state: config copy bound for the stream's lifetime,
  /// per-slot completion flags + tile-side wall times, and the
  /// [next_collect_, next_offer_) in-flight cursor pair.
  KSetRunConfig stream_config_;
  std::vector<std::uint8_t> done_;
  std::vector<std::int64_t> elapsed_ns_;
  std::uint64_t next_offer_ = 0;
  std::uint64_t next_collect_ = 0;
  bool streaming_ = false;
  TilePlane plane_;  // last: joins tiles before the rest dies
};

}  // namespace sskel
