#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "campaign/checkpoint.hpp"
#include "util/varint.hpp"

namespace perfbench {

namespace {

/// Tiles of every plane workload; with the dispatcher that is four
/// busy threads.
constexpr unsigned kTiles = 3;

void put_signed(std::vector<std::uint8_t>& out, std::int64_t value) {
  sskel::put_varint(out, static_cast<std::uint64_t>(value));
}

void put_set(std::vector<std::uint8_t>& out, const sskel::ProcSet& set) {
  put_signed(out, set.count());
  for (const sskel::ProcId p : set) put_signed(out, p);
}

/// CPUs this process may run on (what `nproc` prints).
unsigned host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

}  // namespace

std::int64_t min_trials(const Args& args) { return args.smoke ? 10 : 100; }

int setup_reps(const Args& args) { return args.smoke || args.trace ? 1 : 5; }

void plan_threads(Result& result, unsigned busy) {
  const unsigned nproc = host_cpus();
  result.note("nproc", std::to_string(nproc));
  result.note("planned_busy_threads", std::to_string(busy));
  if (busy > nproc) {
    throw std::runtime_error("refused: the workload plans " +
                             std::to_string(busy) + " busy threads, nproc is " +
                             std::to_string(nproc));
  }
}

unsigned plan_tiles(Result& result) {
  plan_threads(result, kTiles + 1);
  return kTiles;
}

void note_plane(Result& result, unsigned tiles,
                const std::vector<int>& placement, unsigned failed_pins) {
  std::string cpus;
  for (const int cpu : placement) {
    if (!cpus.empty()) cpus += ",";
    cpus += std::to_string(cpu);
  }
  result.note("tiles", std::to_string(tiles));
  result.note("placement", cpus.empty() ? "unpinned" : cpus);
  result.note("failed_pins", std::to_string(failed_pins));
}

bool fold_checked(sskel::McSummary& summary, const sskel::ScenarioTrial& trial,
                  const sskel::KSetRunConfig& config) {
  const std::int64_t before[] = {
      summary.undecided_runs, summary.agreement_violations,
      summary.validity_violations, summary.bound_violations};
  sskel::fold_scenario_trial(summary, trial, config);
  const std::int64_t after[] = {
      summary.undecided_runs, summary.agreement_violations,
      summary.validity_violations, summary.bound_violations};
  return std::equal(std::begin(before), std::end(before), std::begin(after)) &&
         trial.kset.root_components_final.size() <=
             static_cast<std::size_t>(config.k);
}

std::uint64_t summary_digest(const sskel::McSummary& summary) {
  return sskel::fnv1a64(sskel::encode_summary_trial_fields(summary));
}

std::uint64_t trial_digest(const sskel::ScenarioTrial& trial) {
  const sskel::KSetRunReport& r = trial.kset;
  std::vector<std::uint8_t> bytes;
  put_signed(bytes, r.n);
  put_signed(bytes, r.all_decided ? 1 : 0);
  put_signed(bytes, r.rounds_executed);
  put_signed(bytes, r.last_decision_round);
  put_signed(bytes, r.distinct_values);
  put_signed(bytes, r.verdict.k_agreement ? 1 : 0);
  put_signed(bytes, r.verdict.validity ? 1 : 0);
  put_signed(bytes, r.verdict.termination ? 1 : 0);
  for (const sskel::Outcome& o : r.outcomes) {
    put_signed(bytes, o.proposal);
    put_signed(bytes, o.decided ? 1 : 0);
    put_signed(bytes, o.decision);
    put_signed(bytes, o.decision_round);
  }
  for (const sskel::DecisionPath path : r.paths) {
    put_signed(bytes, static_cast<std::int64_t>(path));
  }
  put_set(bytes, r.final_skeleton.nodes());
  for (const sskel::ProcId q : r.final_skeleton.nodes()) {
    put_set(bytes, r.final_skeleton.out_neighbors(q));
  }
  put_signed(bytes, r.skeleton_last_change);
  for (const sskel::ProcSet& root : r.root_components_final) {
    put_set(bytes, root);
  }
  put_signed(bytes, r.total_messages);
  put_signed(bytes, r.total_bytes);
  put_signed(bytes, r.max_message_bytes);
  put_signed(bytes, static_cast<std::int64_t>(r.lemma_violations.size()));
  put_signed(bytes, trial.net_backed ? 1 : 0);
  put_signed(bytes, trial.delivered_messages);
  put_signed(bytes, trial.late_messages);
  put_signed(bytes, trial.lost_messages);
  put_signed(bytes, trial.credit_stalls);
  put_signed(bytes, trial.wall_clock);
  return sskel::fnv1a64(bytes);
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(1 << 16, '\n');
  }
  return 0.0;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e9;
}

void add_end_to_end(Result& result, const EndToEnd& e2e) {
  result.add("trials_per_s", e2e.trials_per_s, "1/s");
  result.add("trial_ms_p50", median(e2e.trial_ms), "ms");
  result.add("trial_ms_p90", percentile(e2e.trial_ms, 0.9), "ms");
  result.add("setup_s", median(e2e.setup_s), "s");
  result.add("peak_rss_mb", e2e.peak_rss_mb, "MiB");
  result.note("trial_samples", std::to_string(e2e.trial_ms.size()));
  result.note("setup_samples", std::to_string(e2e.setup_s.size()));
}

void add_per_layer(Result& result, const PerLayer& layer,
                   const TraceTotals& spans) {
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto process_rounds =
      static_cast<double>(spans.count(Counter::kProcessRounds));
  result.add("campaign.checkpoint_stall_ms", layer.checkpoint_stall_ms, "ms");
  result.add("campaign.encode_us", spans.at(Layer::kEncode).mean_us(), "us");
  result.add("campaign.fold_us", spans.at(Layer::kFold).mean_us(), "us");
  result.add("campaign.checkpoints_written", layer.checkpoints_written,
             "count");
  result.add("campaign.burst_grows", layer.burst_grows, "count");
  result.add("campaign.burst_shrinks", layer.burst_shrinks, "count");
  result.add("mc.tile_busy_share", layer.tile_busy_share, "share");
  result.add("mc.offer_accept_share", layer.offer_accept_share, "share");
  result.add("mc.collect_idle_us", layer.collect_idle_us, "us");
  result.add("mc.submit_stalls", layer.submit_stalls, "count");
  result.add("mc.result_stalls", layer.result_stalls, "count");
  result.add("kset.transition_us", spans.at(Layer::kTransition).mean_us(),
             "us");
  result.add("kset.send_us", spans.at(Layer::kSend).mean_us(), "us");
  result.add("kset.timely_senders",
             ratio(static_cast<double>(spans.count(Counter::kTimelySenders)),
                   process_rounds),
             "count");
  result.add("kset.reach_cache_hit_share",
             ratio(static_cast<double>(spans.count(Counter::kReachCacheHits)),
                   process_rounds),
             "share");
  result.add("kset.rounds_per_trial", layer.rounds_per_trial, "count");
  result.add("adversary.graph_into_us", spans.at(Layer::kGraphInto).mean_us(),
             "us");
  result.add("rounds.step_self_us",
             spans.at(Layer::kRoundsStep).mean_self_us(), "us");
  result.add("rounds.msgs_per_round", layer.msgs_per_round, "count");
  result.add("net.step_self_us", spans.at(Layer::kNetStep).mean_self_us(),
             "us");
  result.add("net.on_time_share", layer.on_time_share, "share");
  result.add("net.late_per_round", layer.late_per_round, "count");
  result.add("net.credit_stalls", layer.credit_stalls, "count");
  result.add("skeleton.observe_us", spans.at(Layer::kObserve).mean_us(), "us");
  result.add("skeleton.analytics_us", spans.at(Layer::kAnalytics).mean_us(),
             "us");
  result.add("skeleton.scc_components_resolved",
             layer.scc_components_resolved, "count");
  result.add("skeleton.intern_hit_share", layer.intern_hit_share, "share");
  result.add("predicates.hub_cover_ms",
             spans.at(Layer::kHubCover).mean_us() / 1e3, "ms");
  result.add("util.peak_proc_set_mb", layer.peak_proc_set_mb, "MiB");
  result.add("trace.throughput_ratio", layer.throughput_ratio, "ratio");
  result.note("spans_kept", std::to_string(spans.spans_kept));
  result.note("spans_dropped", std::to_string(spans.spans_dropped));
}

void TrialCounts::add(const sskel::ScenarioTrial& trial) {
  ++trials;
  rounds += trial.kset.rounds_executed;
  messages += trial.kset.total_messages;
  delivered += trial.delivered_messages;
  late += trial.late_messages;
  lost += trial.lost_messages;
  credit_stalls += trial.credit_stalls;
}

TrialCounts& TrialCounts::operator+=(const TrialCounts& other) {
  trials += other.trials;
  rounds += other.rounds;
  messages += other.messages;
  delivered += other.delivered;
  late += other.late;
  lost += other.lost;
  credit_stalls += other.credit_stalls;
  return *this;
}

void TrialCounts::fill(PerLayer& layer) const {
  if (trials == 0 || rounds == 0) return;
  layer.rounds_per_trial =
      static_cast<double>(rounds) / static_cast<double>(trials);
  layer.msgs_per_round =
      static_cast<double>(messages) / static_cast<double>(rounds);
  const std::int64_t sent = delivered + late + lost;
  if (sent > 0) {
    layer.on_time_share =
        static_cast<double>(delivered) / static_cast<double>(sent);
  }
  layer.late_per_round =
      static_cast<double>(late) / static_cast<double>(rounds);
  layer.credit_stalls = static_cast<double>(credit_stalls);
}

bool traced_offer(sskel::McTilePlane& plane, std::uint64_t index,
                  std::uint64_t seed) {
  set_trial(seed);
  bool accepted = false;
  {
    const SpanScope span(Layer::kOffer);
    accepted = plane.stream_offer(index, seed);
  }
  add_count(Counter::kOffersAttempted, 1);
  add_count(Counter::kOffersAccepted, accepted ? 1 : 0);
  return accepted;
}

std::size_t traced_collect(sskel::McTilePlane& plane,
                           const sskel::McTilePlane::StreamSink& sink) {
  set_trial(0);
  const std::int64_t start = now_ns();
  std::size_t collected = 0;
  {
    SpanScope span(Layer::kCollect);
    collected = plane.stream_collect(sink);
    if (collected == 0) span.cancel();
  }
  if (collected == 0) add_count(Counter::kCollectIdleNs, now_ns() - start);
  return collected;
}

double hit_share(const sskel::InternStats& stats) {
  const std::int64_t lookups = stats.hits + stats.misses;
  return lookups > 0 ? static_cast<double>(stats.hits) /
                           static_cast<double>(lookups)
                     : 0.0;
}

PlaneMarks marks(const sskel::McTilePlane& plane) {
  return {plane.submit_stalls(), plane.result_stalls()};
}

void fill_plane_layer(PerLayer& layer, const TraceTotals& spans,
                      const sskel::McTilePlane& plane, PlaneMarks before,
                      std::int64_t trials, std::int64_t busy_ns,
                      double wall_seconds) {
  const double tile_ns = static_cast<double>(plane.tiles()) * wall_seconds * 1e9;
  layer.tile_busy_share =
      tile_ns > 0.0 ? static_cast<double>(busy_ns) / tile_ns : 0.0;
  const auto offers = static_cast<double>(spans.count(Counter::kOffersAttempted));
  layer.offer_accept_share =
      offers > 0.0
          ? static_cast<double>(spans.count(Counter::kOffersAccepted)) / offers
          : 0.0;
  layer.collect_idle_us =
      static_cast<double>(spans.count(Counter::kCollectIdleNs)) / 1e3 /
      static_cast<double>(std::max<std::int64_t>(trials, 1));
  layer.submit_stalls =
      static_cast<double>(plane.submit_stalls() - before.submit_stalls);
  layer.result_stalls =
      static_cast<double>(plane.result_stalls() - before.result_stalls);
  sskel::McSummary service;
  plane.export_service_fields(service);
  layer.intern_hit_share = hit_share(service.intern);
  layer.peak_proc_set_mb =
      static_cast<double>(sskel::ProcSet::peak_bytes()) / (1024.0 * 1024.0);
}

}  // namespace perfbench
