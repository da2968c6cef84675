#include "spans.hpp"

#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

/// Raw spans kept per thread (32 bytes each). Totals keep counting
/// past the cap; only the written file is truncated.
constexpr std::size_t kSpansPerThread = 100000;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t trial = 0;
  std::int32_t parent = -1;
  Layer layer = Layer::kCount;
};

struct Frame {
  Layer layer = Layer::kCount;
  std::int64_t start_ns = 0;
  std::int64_t child_ns = 0;
  std::int32_t index = -1;  // slot in spans, or -1 when not kept
};

struct ThreadSpans {
  std::vector<Span> spans;
  std::vector<Frame> stack;
  TraceTotals totals;
  std::uint64_t trial = 0;
};

std::mutex registry_mutex;
std::vector<std::unique_ptr<ThreadSpans>> registry;  // guarded by registry_mutex

ThreadSpans& local() {
  thread_local ThreadSpans* mine = nullptr;
  if (mine == nullptr) {
    auto fresh = std::make_unique<ThreadSpans>();
    fresh->spans.reserve(4096);
    mine = fresh.get();
    const std::lock_guard<std::mutex> lock(registry_mutex);
    registry.push_back(std::move(fresh));
  }
  return *mine;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRoundsStep: return "rounds.step";
    case Layer::kNetStep: return "net.step";
    case Layer::kGraphInto: return "adversary.graph_into";
    case Layer::kSend: return "kset.send_into";
    case Layer::kTransition: return "kset.transition";
    case Layer::kObserve: return "skeleton.observe";
    case Layer::kAnalytics: return "skeleton.analytics";
    case Layer::kHubCover: return "predicates.hub_cover";
    case Layer::kOffer: return "mc.stream_offer";
    case Layer::kCollect: return "mc.stream_collect";
    case Layer::kFold: return "campaign.fold";
    case Layer::kEncode: return "campaign.encode_checkpoint";
    case Layer::kCount: break;
  }
  return "?";
}

double LayerTotals::mean_us() const {
  return calls > 0 ? static_cast<double>(total_ns) / 1e3 /
                         static_cast<double>(calls)
                   : 0.0;
}

double LayerTotals::mean_self_us() const {
  return calls > 0 ? static_cast<double>(self_ns) / 1e3 /
                         static_cast<double>(calls)
                   : 0.0;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanScope::SpanScope(Layer layer) {
  ThreadSpans& t = local();
  Frame frame;
  frame.layer = layer;
  if (t.spans.size() < kSpansPerThread) {
    frame.index = static_cast<std::int32_t>(t.spans.size());
    Span span;
    span.trial = t.trial;
    span.layer = layer;
    span.parent = t.stack.empty() ? -1 : t.stack.back().index;
    t.spans.push_back(span);
  } else {
    ++t.totals.spans_dropped;
  }
  frame.start_ns = now_ns();
  t.stack.push_back(frame);
}

SpanScope::~SpanScope() {
  const std::int64_t end = now_ns();
  ThreadSpans& t = local();
  const Frame frame = t.stack.back();
  t.stack.pop_back();
  if (cancelled_) {
    if (frame.index >= 0) {
      t.spans.pop_back();
    } else {
      --t.totals.spans_dropped;
    }
    return;
  }
  const std::int64_t duration = end - frame.start_ns;
  LayerTotals& totals = t.totals.layers[static_cast<std::size_t>(frame.layer)];
  ++totals.calls;
  totals.total_ns += duration;
  totals.self_ns += duration - frame.child_ns;
  if (!t.stack.empty()) t.stack.back().child_ns += duration;
  if (frame.index >= 0) {
    Span& span = t.spans[static_cast<std::size_t>(frame.index)];
    span.start_ns = frame.start_ns;
    span.end_ns = end;
  }
}

void set_trial(std::uint64_t trial) { local().trial = trial; }

void add_count(Counter counter, std::int64_t delta) {
  local().totals.counters[static_cast<std::size_t>(counter)] += delta;
}

TraceTotals totals() {
  TraceTotals sum;
  const std::lock_guard<std::mutex> lock(registry_mutex);
  for (const auto& t : registry) {
    for (std::size_t i = 0; i < sum.layers.size(); ++i) {
      sum.layers[i].calls += t->totals.layers[i].calls;
      sum.layers[i].total_ns += t->totals.layers[i].total_ns;
      sum.layers[i].self_ns += t->totals.layers[i].self_ns;
    }
    for (std::size_t i = 0; i < sum.counters.size(); ++i) {
      sum.counters[i] += t->totals.counters[i];
    }
    sum.spans_kept += static_cast<std::int64_t>(t->spans.size());
    sum.spans_dropped += t->totals.spans_dropped;
  }
  return sum;
}

void reset() {
  const std::lock_guard<std::mutex> lock(registry_mutex);
  for (const auto& t : registry) {
    t->spans.clear();
    t->totals = TraceTotals{};
  }
}

bool write_tsv(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) return false;
  out << "thread\tindex\tparent\ttrial\tlayer\tstart_ns\tend_ns\n";
  const std::lock_guard<std::mutex> lock(registry_mutex);
  for (std::size_t thread = 0; thread < registry.size(); ++thread) {
    const std::vector<Span>& spans = registry[thread]->spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << thread << '\t' << i << '\t' << s.parent << '\t' << s.trial
          << '\t' << layer_name(s.layer) << '\t' << s.start_ns << '\t'
          << s.end_ns << '\n';
    }
  }
  out.flush();
  return out.good();
}

}  // namespace perfbench
