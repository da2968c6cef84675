#include "traced_kset.hpp"

#include <algorithm>
#include <utility>

#include "kset/message.hpp"
#include "kset/runner.hpp"
#include "kset/skeleton_kset.hpp"
#include "rounds/simulator.hpp"
#include "skeleton/intern.hpp"
#include "skeleton/tracker.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using sskel::Algorithm;
using sskel::Digraph;
using sskel::GraphSource;
using sskel::Inbox;
using sskel::KSetRunConfig;
using sskel::KSetRunReport;
using sskel::ProcId;
using sskel::Round;
using sskel::RoundEngine;
using sskel::SkeletonKSetProcess;
using sskel::SkeletonMessage;
using sskel::SkeletonTracker;
using sskel::Value;

/// Forwards to the trial's real source, one span per round graph.
class TracedSource final : public GraphSource {
 public:
  void bind(GraphSource& inner) { inner_ = &inner; }

  [[nodiscard]] ProcId n() const override { return inner_->n(); }
  [[nodiscard]] Digraph graph(Round r) override {
    const SpanScope span(Layer::kGraphInto);
    return inner_->graph(r);
  }
  void graph_into(Round r, Digraph& out) override {
    const SpanScope span(Layer::kGraphInto);
    inner_->graph_into(r, out);
  }

 private:
  GraphSource* inner_ = nullptr;
};

/// Owns the real Algorithm 1 process and times each call into it.
class TracedProcess final : public Algorithm<SkeletonMessage> {
 public:
  explicit TracedProcess(std::unique_ptr<SkeletonKSetProcess> inner)
      : Algorithm(inner->n(), inner->id()), inner_(std::move(inner)) {}

  [[nodiscard]] SkeletonMessage send(Round r) override {
    const SpanScope span(Layer::kSend);
    return inner_->send(r);
  }
  void send_into(Round r, SkeletonMessage& out) override {
    const SpanScope span(Layer::kSend);
    inner_->send_into(r, out);
  }
  void transition(Round r, const Inbox<SkeletonMessage>& inbox) override {
    {
      const SpanScope span(Layer::kTransition);
      inner_->transition(r, inbox);
    }
    add_count(Counter::kProcessRounds, 1);
    add_count(Counter::kTimelySenders, inner_->pt().count());
  }

 private:
  std::unique_ptr<SkeletonKSetProcess> inner_;
};

using ProcessVector = std::vector<std::unique_ptr<Algorithm<SkeletonMessage>>>;

/// make_kset_processes with every process wrapped; `views` receives
/// the real processes in id order.
ProcessVector make_traced_processes(ProcId n, const KSetRunConfig& config,
                                    std::vector<SkeletonKSetProcess*>& views) {
  const std::vector<Value> proposals = config.proposals.empty()
                                           ? sskel::default_proposals(n)
                                           : config.proposals;
  SSKEL_REQUIRE(proposals.size() == static_cast<std::size_t>(n));
  sskel::StructureInternTable* table =
      config.intern != nullptr ? &config.intern->local() : nullptr;
  ProcessVector procs;
  views.clear();
  for (ProcId p = 0; p < n; ++p) {
    auto inner = std::make_unique<SkeletonKSetProcess>(
        n, p, proposals[static_cast<std::size_t>(p)], config.guard);
    inner->set_intern_table(table);
    views.push_back(inner.get());
    procs.push_back(std::make_unique<TracedProcess>(std::move(inner)));
  }
  return procs;
}

void attach_tracker(RoundEngine<SkeletonMessage>& engine,
                    SkeletonTracker& tracker, const KSetRunConfig& config) {
  if (config.intern != nullptr) {
    tracker.attach_intern(&config.intern->local());
  }
  engine.add_observer([&tracker](Round r, const Digraph& g) {
    const SpanScope span(Layer::kObserve);
    tracker.observe(r, g);
  });
}

/// run_kset_core's loop and report, with each round one `step_layer`
/// span. The lemma monitor is not mirrored; the benchmark runs
/// without it.
KSetRunReport run_traced_core(RoundEngine<SkeletonMessage>& engine,
                              const KSetRunConfig& config,
                              SkeletonTracker& tracker,
                              const std::vector<SkeletonKSetProcess*>& views,
                              Layer step_layer) {
  const ProcId n = engine.n();
  SSKEL_REQUIRE(!config.attach_lemma_monitor);
  SSKEL_REQUIRE(engine.rounds_completed() == 0);
  if (config.measure_bytes) {
    engine.set_message_sizer(
        [](const SkeletonMessage& m) { return sskel::encoded_size(m); });
  }
  const Round max_rounds =
      config.max_rounds > 0 ? config.max_rounds : 8 * n + 32;
  const auto all_decided = [&] {
    return std::all_of(
        views.begin(), views.end(),
        [](const SkeletonKSetProcess* v) { return v->decided(); });
  };
  const auto step = [&] {
    const SpanScope span(step_layer);
    (void)engine.step();
  };

  Round executed = 0;
  bool done = false;
  while (executed < max_rounds) {
    step();
    ++executed;
    if (all_decided()) {
      done = true;
      break;
    }
  }
  for (Round t = 0; t < config.tail_rounds && executed < max_rounds; ++t) {
    step();
    ++executed;
  }

  KSetRunReport report;
  report.n = n;
  report.all_decided = done || all_decided();
  report.rounds_executed = executed;
  std::int64_t cache_hits = 0;
  for (const SkeletonKSetProcess* v : views) {
    sskel::Outcome o;
    o.proposal = v->proposal();
    o.decided = v->decided();
    if (v->decided()) {
      o.decision = v->decision();
      o.decision_round = v->decision_round();
      report.last_decision_round =
          std::max(report.last_decision_round, v->decision_round());
    }
    report.outcomes.push_back(o);
    report.paths.push_back(v->decision_path());
    cache_hits += v->reachability_cache_hits();
  }
  add_count(Counter::kReachCacheHits, cache_hits);
  report.verdict = sskel::verify_kset(report.outcomes, config.k);
  report.distinct_values = report.verdict.distinct_decisions;
  report.final_skeleton = tracker.skeleton();
  report.skeleton_last_change = tracker.last_change_round();
  {
    const SpanScope span(Layer::kAnalytics);
    report.root_components_final = tracker.current_root_components();
  }
  report.total_messages = engine.trace().total_messages();
  report.total_bytes = engine.trace().total_bytes();
  report.max_message_bytes = engine.trace().max_message_bytes();
  return report;
}

/// Persistent engine, processes and tracker for one tile, reset per
/// trial the way KSetTrialScratch resets its own.
class TracedSimScratch final : public sskel::ScenarioFactory::Scratch {
 public:
  TracedSource source;
  std::unique_ptr<sskel::Simulator<SkeletonMessage>> sim;
  std::unique_ptr<SkeletonTracker> tracker;
  std::vector<SkeletonKSetProcess*> views;
  std::vector<Value> default_props;
  sskel::DecisionGuard guard = sskel::DecisionGuard::kAfterRoundN;
};

}  // namespace

TracedSimScenario::TracedSimScenario(const sskel::ScenarioFactory& real,
                                     SourceFactory make_source)
    : real_(&real), make_source_(std::move(make_source)) {}

std::unique_ptr<sskel::ScenarioFactory::Scratch>
TracedSimScenario::make_scratch() const {
  return std::make_unique<TracedSimScratch>();
}

sskel::ScenarioTrial TracedSimScenario::run_trial(
    std::uint64_t seed, const KSetRunConfig& config) const {
  TracedSimScratch scratch;
  return run_trial(seed, config, &scratch);
}

sskel::ScenarioTrial TracedSimScenario::run_trial(std::uint64_t seed,
                                                  const KSetRunConfig& config,
                                                  Scratch* scratch) const {
  set_trial(seed);
  const std::unique_ptr<GraphSource> real_source = make_source_(seed);
  TracedSimScratch fallback;
  auto* st = dynamic_cast<TracedSimScratch*>(scratch);
  if (st == nullptr) st = &fallback;
  st->source.bind(*real_source);
  const ProcId n = real_source->n();

  if (st->sim == nullptr || st->guard != config.guard) {
    st->sim = std::make_unique<sskel::Simulator<SkeletonMessage>>(
        st->source, make_traced_processes(n, config, st->views));
    st->tracker = std::make_unique<SkeletonTracker>(n);
    st->default_props.clear();
    st->guard = config.guard;
  } else {
    st->sim->reset(st->source);
    st->tracker->reset();
    const std::vector<Value>* proposals = &config.proposals;
    if (config.proposals.empty()) {
      if (st->default_props.empty()) {
        st->default_props = sskel::default_proposals(n);
      }
      proposals = &st->default_props;
    }
    SSKEL_REQUIRE(proposals->size() == static_cast<std::size_t>(n));
    sskel::StructureInternTable* table =
        config.intern != nullptr ? &config.intern->local() : nullptr;
    for (ProcId p = 0; p < n; ++p) {
      SkeletonKSetProcess* proc = st->views[static_cast<std::size_t>(p)];
      proc->reset((*proposals)[static_cast<std::size_t>(p)]);
      proc->set_intern_table(table);
    }
  }
  attach_tracker(*st->sim, *st->tracker, config);

  sskel::ScenarioTrial trial;
  trial.kset = run_traced_core(*st->sim, config, *st->tracker, st->views,
                               Layer::kRoundsStep);
  return trial;
}

TracedNetScenario::TracedNetScenario(const sskel::ScenarioFactory& real,
                                     sskel::LinkMatrix links,
                                     sskel::NetConfig net)
    : real_(&real), links_(std::move(links)), net_(std::move(net)) {}

sskel::ScenarioTrial TracedNetScenario::run_trial(
    std::uint64_t seed, const KSetRunConfig& config) const {
  set_trial(seed);
  sskel::NetConfig net = net_;
  net.seed = seed;
  std::vector<SkeletonKSetProcess*> views;
  sskel::NetRoundDriver<SkeletonMessage> engine(
      net, links_, make_traced_processes(links_.n(), config, views));
  SkeletonTracker tracker(engine.n());
  attach_tracker(engine, tracker, config);

  sskel::ScenarioTrial trial;
  trial.kset =
      run_traced_core(engine, config, tracker, views, Layer::kNetStep);
  trial.net_backed = true;
  trial.delivered_messages = engine.delivered_messages();
  trial.late_messages = engine.late_messages();
  trial.lost_messages = engine.lost_messages();
  trial.credit_stalls = engine.credit_stalls();
  trial.wall_clock = engine.now();
  return trial;
}

}  // namespace perfbench
