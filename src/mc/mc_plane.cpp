#include "mc/mc_plane.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <thread>

#include "skeleton/intern.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/topology.hpp"

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

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

std::vector<int> resolve_placement(const McPlaneOptions& options,
                                   unsigned tiles) {
  if (!options.pin_tiles) return {};
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
      scratch_(resolve_tile_count(options.tiles)),
      // scratch_.size() rather than resolving again: SSKEL_THREADS is
      // re-read per resolve and must bind exactly once per plane.
      placement_(resolve_placement(options,
                                   static_cast<unsigned>(scratch_.size()))) {
  for (auto& slot : scratch_) slot = scenario.make_scratch();
  threads_.reserve(scratch_.size());
  for (unsigned tile = 0; tile < tiles(); ++tile) {
    threads_.emplace_back([this, tile](const std::stop_token& stop) {
      tile_main(tile, stop);
    });
  }
}

McTilePlane::~McTilePlane() {
  for (std::jthread& thread : threads_) thread.request_stop();
  threads_.clear();  // joins every tile
}

void McTilePlane::tile_main(unsigned tile, const std::stop_token& stop) {
  if (!placement_.empty()) pin_current_thread(placement_[tile], pin_failures_);
  while (!stop.stop_requested()) {
    std::uint64_t seq = claimed_.load(std::memory_order_relaxed);
    // Acquire: a published seq's slot and its stream's state are
    // visible before the claim below can hand them to this tile.
    if (seq >= offered_.load(std::memory_order_acquire)) {
      std::this_thread::yield();
      continue;
    }
    // Succeeds only while claimed_ still equals seq, and claimed_ never
    // repeats a value, so a seq read before a stream ended cannot be
    // claimed in the next one.
    if (claimed_.compare_exchange_weak(seq, seq + 1,
                                       std::memory_order_relaxed)) {
      run_claimed(tile, seq);
    }
  }
}

void McTilePlane::run_claimed(unsigned tile, std::uint64_t seq) {
  // Exclusive: the window bound means no other live trial maps to this
  // slot, and the dispatcher reads it only after the release below.
  Slot& slot = slots_[static_cast<std::size_t>(seq % slots_.size())];
  const auto start = std::chrono::steady_clock::now();
  slot.trial =
      scenario_->run_trial(slot.seed, stream_config_, scratch_[tile].get());
  slot.elapsed_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  slot.done.store(seq + 1, std::memory_order_release);
}

void McTilePlane::stream_begin(const KSetRunConfig& config, std::size_t window,
                               std::uint64_t first_index) {
  SSKEL_REQUIRE(!streaming_);
  SSKEL_REQUIRE(window > 0);
  // No tile touches the stream state now: every published seq has been
  // collected, and the next claim waits for the next publish. A window
  // of the same size is reused: its reports stay alive until their
  // slots are overwritten, and its tags all lie below this stream's
  // first seq + 1, so none of them reads as complete.
  stream_config_ = config;
  if (slots_.size() != window) slots_ = std::vector<Slot>(window);
  stream_base_ = next_offer_;
  first_index_ = first_index;
  streaming_ = true;
}

bool McTilePlane::stream_offer(std::uint64_t index, std::uint64_t seed) {
  SSKEL_REQUIRE(streaming_);
  SSKEL_REQUIRE(index == first_index_ + (next_offer_ - stream_base_));
  if (next_offer_ - next_collect_ >= slots_.size()) {
    ++refused_offers_;
    return false;
  }
  slots_[static_cast<std::size_t>(next_offer_ % slots_.size())].seed = seed;
  ++next_offer_;
  offered_.store(next_offer_, std::memory_order_release);
  return true;
}

std::size_t McTilePlane::stream_collect(const StreamSink& sink) {
  SSKEL_REQUIRE(streaming_);
  std::size_t delivered = 0;
  while (next_collect_ < next_offer_) {
    const Slot& slot =
        slots_[static_cast<std::size_t>(next_collect_ % slots_.size())];
    if (slot.done.load(std::memory_order_acquire) != next_collect_ + 1) break;
    if (sink) {
      sink(first_index_ + (next_collect_ - stream_base_), slot.trial,
           slot.elapsed_ns);
    }
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
  const InternDomain* domain = stream_config_.intern;
  summary.intern = domain != nullptr ? domain->merged_stats() : InternStats{};
  summary.intern_shards =
      domain != nullptr ? static_cast<std::int64_t>(domain->shard_count()) : 0;
  summary.peak_proc_set_bytes = ProcSet::peak_bytes();
  summary.live_proc_set_bytes = ProcSet::live_bytes();
  summary.arena_proc_set_bytes = ProcSet::arena_bytes();
  summary.arena_reuses = ProcSet::arena_reuses();
  summary.tiles = static_cast<std::int64_t>(tiles());
  summary.tile_placement = cpu_list_to_string(placement_);
  summary.failed_pins = static_cast<std::int64_t>(failed_pins());
}

McSummary McTilePlane::run(std::uint64_t master_seed, int trials,
                           const KSetRunConfig& config,
                           const TrialCallback& per_trial) {
  SSKEL_REQUIRE(trials >= 0);

  ProcSet::reset_peak_bytes();

  McSummary summary;
  summary.bytes_measured = config.measure_bytes;

  // A batch is a stream whose window holds kRunWindowPerTile trials
  // per tile: enough to keep every tile busy, and the result slots
  // (whose reports stay alive until the next stream) do not grow with
  // the batch. The fold happens on the dispatcher as completions
  // arrive, in trial order.
  stream_begin(config, std::clamp<std::size_t>(
                           static_cast<std::size_t>(trials), 1,
                           std::size_t{tiles()} * kRunWindowPerTile));
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
