#include "mc/mc_plane.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <thread>

#include "util/rng.hpp"
#include "util/topology.hpp"

namespace sskel {

namespace {

/// A positive SSKEL_THREADS value, or 0 when `value` is null, empty,
/// zero, negative, or carries anything but trailing whitespace after
/// the number.
unsigned parse_thread_cap(const char* value) {
  if (value == nullptr || *value == '\0') return 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || parsed <= 0) return 0;
  for (const char* c = end; *c != '\0'; ++c) {
    if (std::isspace(static_cast<unsigned char>(*c)) == 0) return 0;
  }
  return static_cast<unsigned>(std::min<unsigned long>(
      static_cast<unsigned long>(parsed),
      std::numeric_limits<unsigned>::max()));
}

TilePlaneOptions to_tile_options(const McPlaneOptions& options) {
  TilePlaneOptions tile_options;
  tile_options.ring_depth = options.ring_depth;
  tile_options.lazy = options.lazy;
  tile_options.pin_threads = options.pin_tiles;
  tile_options.cpu_placement = options.cpu_placement;
  return tile_options;
}

}  // namespace

unsigned tiles_from_env_value(unsigned requested, const char* value,
                              unsigned hardware) {
  const unsigned cap = parse_thread_cap(value);
  if (requested == 0) {
    const unsigned hw = std::max(1u, hardware);
    return cap == 0 ? hw : std::min(cap, hw);
  }
  return cap == 0 ? requested : std::min(cap, requested);
}

unsigned resolve_tile_count(unsigned requested) {
  return tiles_from_env_value(requested, std::getenv("SSKEL_THREADS"),
                              std::thread::hardware_concurrency());
}

McTilePlane::McTilePlane(const ScenarioFactory& scenario,
                         McPlaneOptions options)
    : scenario_(&scenario),
      ring_depth_(std::max<std::size_t>(options.ring_depth, 1)),
      scratch_(resolve_tile_count(options.tiles)),
      // scratch_.size() rather than resolving again: SSKEL_THREADS is
      // re-read per resolve and must bind exactly once per plane.
      plane_(static_cast<unsigned>(scratch_.size()), &McTilePlane::work_fn,
             this, to_tile_options(options)) {
  for (auto& slot : scratch_) slot = scenario.make_scratch();
}

McTilePlane::~McTilePlane() = default;

TileResult McTilePlane::work_fn(void* ctx, unsigned tile,
                                const TileWork& work) {
  auto* self = static_cast<McTilePlane*>(ctx);
  const std::size_t slot =
      static_cast<std::size_t>(work.id) % self->batch_.results->size();
  // Exclusive write: the in-flight window bound means no other live
  // trial maps to this slot. The result-ring publish (release) orders
  // it before the dispatcher's drain (acquire) of the completion token
  // below.
  const auto start = std::chrono::steady_clock::now();
  (*self->batch_.results)[slot] = self->scenario_->run_trial(
      work.seed, *self->batch_.config, self->scratch_[tile].get());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  TileResult token;
  token.id = work.id;
  token.value =
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
  return token;
}

void McTilePlane::stream_begin(const KSetRunConfig& config, std::size_t window,
                               std::uint64_t first_index) {
  SSKEL_REQUIRE(!streaming_);
  SSKEL_REQUIRE(window > 0);

  // The persistent domain is the service's point: tile shards carry
  // interned analytics from batch to batch, so a converged scenario's
  // second batch re-analyzes (almost) nothing.
  stream_config_ = config;
  if (stream_config_.intern == nullptr) stream_config_.intern = &intern_;

  results_.assign(window, ScenarioTrial{});
  done_.assign(window, 0);
  elapsed_ns_.assign(window, 0);
  batch_.config = &stream_config_;
  batch_.results = &results_;
  next_offer_ = first_index;
  next_collect_ = first_index;
  tokens_.clear();
  streaming_ = true;
}

bool McTilePlane::stream_offer(std::uint64_t index, std::uint64_t seed) {
  SSKEL_REQUIRE(streaming_);
  SSKEL_REQUIRE(index == next_offer_);
  if (next_offer_ - next_collect_ >= results_.size()) return false;
  TileWork work;
  work.id = index;
  work.seed = seed;
  if (!plane_.try_submit(work)) return false;
  ++next_offer_;
  return true;
}

std::size_t McTilePlane::stream_collect(const StreamSink& sink) {
  SSKEL_REQUIRE(streaming_);
  plane_.drain(tokens_);
  for (const TileResult& token : tokens_) {
    const std::size_t slot =
        static_cast<std::size_t>(token.id) % results_.size();
    SSKEL_ASSERT(done_[slot] == 0);
    done_[slot] = 1;
    elapsed_ns_[slot] = token.value;
  }
  tokens_.clear();
  std::size_t delivered = 0;
  while (next_collect_ < next_offer_ &&
         done_[static_cast<std::size_t>(next_collect_) % results_.size()] !=
             0) {
    const std::size_t slot =
        static_cast<std::size_t>(next_collect_) % results_.size();
    if (sink) sink(next_collect_, results_[slot], elapsed_ns_[slot]);
    done_[slot] = 0;
    ++next_collect_;
    ++delivered;
  }
  return delivered;
}

void McTilePlane::stream_flush(const StreamSink& sink) {
  while (stream_in_flight() > 0) {
    if (stream_collect(sink) == 0) std::this_thread::yield();
  }
}

void McTilePlane::stream_abort() { stream_flush(StreamSink{}); }

void McTilePlane::stream_end() {
  SSKEL_REQUIRE(streaming_);
  SSKEL_REQUIRE(stream_in_flight() == 0);
  streaming_ = false;
}

void McTilePlane::export_service_fields(McSummary& summary) const {
  summary.scenario = scenario_->name();
  summary.intern = stream_config_.intern != nullptr
                       ? stream_config_.intern->merged_stats()
                       : intern_.merged_stats();
  summary.intern_shards = static_cast<std::int64_t>(
      stream_config_.intern != nullptr ? stream_config_.intern->shard_count()
                                       : intern_.shard_count());
  summary.peak_proc_set_bytes = ProcSet::peak_bytes();
  summary.live_proc_set_bytes = ProcSet::live_bytes();
  summary.arena_proc_set_bytes = ProcSet::arena_bytes();
  summary.arena_reuses = ProcSet::arena_reuses();
  summary.tiles = static_cast<std::int64_t>(plane_.tiles());
  summary.tile_placement = cpu_list_to_string(plane_.placement());
  summary.failed_pins = static_cast<std::int64_t>(plane_.failed_pins());
}

McSummary McTilePlane::run(std::uint64_t master_seed, int trials,
                           const KSetRunConfig& config,
                           const TrialCallback& per_trial) {
  SSKEL_REQUIRE(trials >= 0);

  ProcSet::reset_peak_bytes();

  McSummary summary;
  summary.bytes_measured = config.measure_bytes;

  // A batch is a stream whose window holds one ring's worth of trials
  // per tile: enough to keep every intake busy, and the result slots
  // (whose reports stay alive until the next stream) no longer grow
  // with the batch. The fold happens on the dispatcher as completions
  // arrive, in trial order.
  stream_begin(config, std::clamp<std::size_t>(
                           static_cast<std::size_t>(trials), 1,
                           std::size_t{plane_.tiles()} * ring_depth_));
  const StreamSink sink = [&](std::uint64_t t, const ScenarioTrial& trial,
                              std::int64_t /*elapsed_ns*/) {
    fold_scenario_trial(summary, trial, config);
    if (per_trial) per_trial(static_cast<std::size_t>(t), trial);
  };
  for (int t = 0; t < trials; ++t) {
    const auto index = static_cast<std::uint64_t>(t);
    while (!stream_offer(index, mix_seed(master_seed, index))) {
      if (stream_collect(sink) == 0) std::this_thread::yield();
    }
    stream_collect(sink);
  }
  stream_flush(sink);
  stream_end();

  export_service_fields(summary);
  return summary;
}

}  // namespace sskel
