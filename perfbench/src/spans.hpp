// In-memory span recorder for the traced run.
//
// A span is one call into a library layer, timed from outside by the
// benchmark's forwarding wrappers: name (the layer), start, end, the
// enclosing span (parent) and the trial it belongs to. Each thread
// records into its own buffer (tile threads run traced trials
// concurrently), so recording takes no lock. Per-layer call counts,
// total and self time (duration minus the time covered by child
// spans) are folded as spans close; the raw spans are kept up to a
// per-thread cap and written out once the run ends.
//
// Readers (totals(), write_tsv(), reset()) must run while no thread is
// recording: after every traced trial has been collected through the
// plane's result ring, whose release/acquire hand-off orders the
// tiles' writes before the dispatcher's read.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench {

/// The layer boundaries the wrappers time, one span name each.
enum class Layer : std::uint8_t {
  kRoundsStep,  // Simulator::step (RoundEngine::step)
  kNetStep,     // NetRoundDriver::step (RoundEngine::step)
  kGraphInto,   // GraphSource::graph_into
  kSend,        // Algorithm::send_into
  kTransition,  // Algorithm::transition
  kObserve,     // SkeletonTracker::observe
  kAnalytics,   // SkeletonTracker::current_scc + current_root_components
  kHubCover,    // greedy_hub_cover + is_hub_cover
  kOffer,       // McTilePlane::stream_offer
  kCollect,     // McTilePlane::stream_collect
  kFold,        // fold_scenario_trial
  kEncode,      // encode_checkpoint
  kCount
};

[[nodiscard]] const char* layer_name(Layer layer);

/// Event counts taken at the same boundaries as the spans.
enum class Counter : std::uint8_t {
  kProcessRounds,      // transition calls
  kTimelySenders,      // sum of |PT_p| after each transition
  kReachCacheHits,     // reachability_cache_hits at trial end
  kOffersAttempted,    // stream_offer calls
  kOffersAccepted,     // stream_offer calls that returned true
  kCollectIdleNs,      // time in stream_collect calls that delivered 0
  kCount
};

struct LayerTotals {
  std::int64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;

  [[nodiscard]] double mean_us() const;
  [[nodiscard]] double mean_self_us() const;
};

struct TraceTotals {
  std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)> layers{};
  std::array<std::int64_t, static_cast<std::size_t>(Counter::kCount)>
      counters{};
  std::int64_t spans_kept = 0;
  std::int64_t spans_dropped = 0;

  [[nodiscard]] const LayerTotals& at(Layer layer) const {
    return layers[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] std::int64_t count(Counter counter) const {
    return counters[static_cast<std::size_t>(counter)];
  }
};

/// Times the enclosing scope as one span of `layer`, attributed to the
/// calling thread's current trial.
class SpanScope {
 public:
  explicit SpanScope(Layer layer);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  /// Drops the span instead of recording it. Only for a span that
  /// opened no child spans (an idle poll).
  void cancel() { cancelled_ = true; }

 private:
  bool cancelled_ = false;
};

/// Sets the trial id that spans opened by the calling thread carry.
void set_trial(std::uint64_t trial);

/// Adds `delta` to the calling thread's `counter`.
void add_count(Counter counter, std::int64_t delta);

/// Sum over every thread that recorded since the last reset().
[[nodiscard]] TraceTotals totals();

/// Drops every recorded span and count.
void reset();

/// Writes the kept spans, one per line:
/// thread, index, parent index (-1 for a root), trial, layer, start_ns,
/// end_ns. Returns false when the file cannot be written.
bool write_tsv(const std::string& path);

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns();

}  // namespace perfbench
