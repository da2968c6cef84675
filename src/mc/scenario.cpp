#include "mc/scenario.hpp"

#include <bit>
#include <memory>
#include <utility>

#include "adversary/crash.hpp"
#include "adversary/rotating.hpp"
#include "util/assert.hpp"
#include "util/varint.hpp"

namespace sskel {

namespace {

ScenarioTrial from_report(KSetRunReport report) {
  ScenarioTrial trial;
  trial.kset = std::move(report);
  return trial;
}

/// append_fingerprint helpers: integers go through the varint (the
/// fingerprint is hashed, only injectivity per scenario matters),
/// doubles through their exact bit pattern.
void fp_int(std::vector<std::uint8_t>& out, std::int64_t v) {
  put_varint(out, static_cast<std::uint64_t>(v));
}

void fp_double(std::vector<std::uint8_t>& out, double v) {
  put_varint(out, std::bit_cast<std::uint64_t>(v));
}

/// Scratch for the simulator-backed scenarios: one persistent
/// engine + process vector per worker (kset/runner.hpp).
class KSetScratch : public ScenarioFactory::Scratch {
 public:
  KSetTrialScratch kset;
};

/// PartitionScenario's scratch additionally persists the graph source:
/// the partition's stable structure is seed-independent, so a reseed
/// replays exactly what a fresh construction would produce without
/// re-validating the blocks or rebuilding the stable graph.
class PartitionScratch final : public KSetScratch {
 public:
  std::unique_ptr<PartitionSource> source;
};

/// Downcast helper: any foreign scratch (or nullptr) degrades to the
/// scratch-free path rather than failing.
KSetTrialScratch* kset_scratch(ScenarioFactory::Scratch* scratch) {
  auto* typed = dynamic_cast<KSetScratch*>(scratch);
  return typed != nullptr ? &typed->kset : nullptr;
}

ScenarioTrial run_kset_trial(GraphSource& source, const KSetRunConfig& config,
                             ScenarioFactory::Scratch* scratch) {
  KSetTrialScratch* reuse = kset_scratch(scratch);
  return from_report(reuse != nullptr ? run_kset(source, config, *reuse)
                                      : run_kset(source, config));
}

std::unique_ptr<ScenarioFactory::Scratch> make_kset_scratch() {
  return std::make_unique<KSetScratch>();
}

}  // namespace

ScenarioTrial RandomPsrcsScenario::run_trial(
    std::uint64_t seed, const KSetRunConfig& config) const {
  RandomPsrcsSource source(seed, params_);
  return from_report(run_kset(source, config));
}

std::unique_ptr<ScenarioFactory::Scratch> RandomPsrcsScenario::make_scratch()
    const {
  return make_kset_scratch();
}

ScenarioTrial RandomPsrcsScenario::run_trial(std::uint64_t seed,
                                             const KSetRunConfig& config,
                                             Scratch* scratch) const {
  RandomPsrcsSource source(seed, params_);
  return run_kset_trial(source, config, scratch);
}

std::optional<RunCapture> RandomPsrcsScenario::capture_trial(
    std::uint64_t seed, const KSetRunConfig& config) const {
  RandomPsrcsSource source(seed, params_);
  RunCapture capture;
  (void)run_kset_recorded(source, config, seed, capture);
  return capture;
}

void RandomPsrcsScenario::append_fingerprint(
    std::vector<std::uint8_t>& out) const {
  fp_int(out, params_.n);
  fp_int(out, params_.k);
  fp_int(out, params_.root_components);
  fp_int(out, params_.max_core_size);
  fp_double(out, params_.noise_probability);
  fp_int(out, params_.stabilization_round);
  fp_int(out, params_.noise_after_stabilization ? 1 : 0);
  fp_double(out, params_.follower_edge_probability);
}

CrashScenario::CrashScenario(ProcId n, int crashes, Round max_crash_round)
    : n_(n), crashes_(crashes), max_crash_round_(max_crash_round) {
  SSKEL_REQUIRE(n_ > 0);
  SSKEL_REQUIRE(crashes_ >= 0 && static_cast<ProcId>(crashes_) < n_);
  SSKEL_REQUIRE(max_crash_round_ >= 1);
}

ScenarioTrial CrashScenario::run_trial(std::uint64_t seed,
                                       const KSetRunConfig& config) const {
  const std::unique_ptr<CrashSource> source =
      make_random_crash_source(seed, n_, crashes_, max_crash_round_);
  return from_report(run_kset(*source, config));
}

std::unique_ptr<ScenarioFactory::Scratch> CrashScenario::make_scratch()
    const {
  return make_kset_scratch();
}

ScenarioTrial CrashScenario::run_trial(std::uint64_t seed,
                                       const KSetRunConfig& config,
                                       Scratch* scratch) const {
  const std::unique_ptr<CrashSource> source =
      make_random_crash_source(seed, n_, crashes_, max_crash_round_);
  return run_kset_trial(*source, config, scratch);
}

std::optional<RunCapture> CrashScenario::capture_trial(
    std::uint64_t seed, const KSetRunConfig& config) const {
  const std::unique_ptr<CrashSource> source =
      make_random_crash_source(seed, n_, crashes_, max_crash_round_);
  RunCapture capture;
  (void)run_kset_recorded(*source, config, seed, capture);
  return capture;
}

void CrashScenario::append_fingerprint(std::vector<std::uint8_t>& out) const {
  fp_int(out, n_);
  fp_int(out, crashes_);
  fp_int(out, max_crash_round_);
}

PartitionScenario::PartitionScenario(PartitionParams params)
    : params_(std::move(params)), n_(0) {
  SSKEL_REQUIRE(!params_.blocks.empty());
  n_ = params_.blocks.front().universe();
}

ScenarioTrial PartitionScenario::run_trial(
    std::uint64_t seed, const KSetRunConfig& config) const {
  PartitionSource source(seed, params_);
  return from_report(run_kset(source, config));
}

std::unique_ptr<ScenarioFactory::Scratch> PartitionScenario::make_scratch()
    const {
  return std::make_unique<PartitionScratch>();
}

ScenarioTrial PartitionScenario::run_trial(std::uint64_t seed,
                                           const KSetRunConfig& config,
                                           Scratch* scratch) const {
  if (auto* typed = dynamic_cast<PartitionScratch*>(scratch)) {
    if (typed->source == nullptr) {
      typed->source = std::make_unique<PartitionSource>(seed, params_);
    } else {
      typed->source->reseed(seed);
    }
    return run_kset_trial(*typed->source, config, scratch);
  }
  PartitionSource source(seed, params_);
  return run_kset_trial(source, config, scratch);
}

std::optional<RunCapture> PartitionScenario::capture_trial(
    std::uint64_t seed, const KSetRunConfig& config) const {
  PartitionSource source(seed, params_);
  RunCapture capture;
  (void)run_kset_recorded(source, config, seed, capture);
  return capture;
}

void PartitionScenario::append_fingerprint(
    std::vector<std::uint8_t>& out) const {
  fp_int(out, n_);
  fp_int(out, static_cast<std::int64_t>(params_.blocks.size()));
  for (const ProcSet& block : params_.blocks) {
    fp_int(out, block.count());
    for (ProcId p = 0; p < n_; ++p) {
      if (block.contains(p)) fp_int(out, p);
    }
  }
  fp_double(out, params_.cross_noise_probability);
  fp_int(out, params_.stabilization_round);
}

RotatingScenario::RotatingScenario(ProcId n, Round hold)
    : n_(n), hold_(hold) {
  SSKEL_REQUIRE(n_ > 0);
  SSKEL_REQUIRE(hold_ >= 1);
}

ScenarioTrial RotatingScenario::run_trial(std::uint64_t seed,
                                          const KSetRunConfig& config) const {
  const ProcId first_center =
      static_cast<ProcId>(seed % static_cast<std::uint64_t>(n_));
  const std::unique_ptr<GraphSource> source =
      make_rotating_star_source(n_, hold_, first_center);
  return from_report(run_kset(*source, config));
}

std::unique_ptr<ScenarioFactory::Scratch> RotatingScenario::make_scratch()
    const {
  return make_kset_scratch();
}

ScenarioTrial RotatingScenario::run_trial(std::uint64_t seed,
                                          const KSetRunConfig& config,
                                          Scratch* scratch) const {
  const ProcId first_center =
      static_cast<ProcId>(seed % static_cast<std::uint64_t>(n_));
  const std::unique_ptr<GraphSource> source =
      make_rotating_star_source(n_, hold_, first_center);
  return run_kset_trial(*source, config, scratch);
}

std::optional<RunCapture> RotatingScenario::capture_trial(
    std::uint64_t seed, const KSetRunConfig& config) const {
  const ProcId first_center =
      static_cast<ProcId>(seed % static_cast<std::uint64_t>(n_));
  const std::unique_ptr<GraphSource> source =
      make_rotating_star_source(n_, hold_, first_center);
  RunCapture capture;
  (void)run_kset_recorded(*source, config, seed, capture);
  return capture;
}

void RotatingScenario::append_fingerprint(
    std::vector<std::uint8_t>& out) const {
  fp_int(out, n_);
  fp_int(out, hold_);
}

NetScenario::NetScenario(LinkMatrix links, NetConfig net)
    : links_(std::move(links)), net_(std::move(net)) {
  SSKEL_REQUIRE(links_.n() > 0);
}

ScenarioTrial NetScenario::run_trial(std::uint64_t seed,
                                     const KSetRunConfig& config) const {
  NetKSetConfig net_config;
  net_config.run = config;
  net_config.net = net_;
  net_config.net.seed = seed;
  const NetKSetReport report = run_kset_over_network(links_, net_config);

  ScenarioTrial trial;
  trial.kset = report.kset;
  trial.net_backed = true;
  trial.delivered_messages = report.delivered_messages;
  trial.late_messages = report.late_messages;
  trial.lost_messages = report.lost_messages;
  trial.credit_stalls = report.credit_stalls;
  trial.wall_clock = report.wall_clock;
  return trial;
}

void NetScenario::append_fingerprint(std::vector<std::uint8_t>& out) const {
  const ProcId n = links_.n();
  fp_int(out, n);
  for (ProcId q = 0; q < n; ++q) {
    for (ProcId p = 0; p < n; ++p) {
      const LinkSpec& spec = links_.at(q, p);
      fp_int(out, static_cast<std::int64_t>(spec.kind));
      fp_int(out, spec.min_delay);
      fp_int(out, spec.max_delay);
      fp_double(out, spec.on_time_probability);
    }
  }
  fp_int(out, net_.round_duration);
  fp_int(out, static_cast<std::int64_t>(net_.skews.size()));
  for (const SimTime skew : net_.skews) fp_int(out, skew);
  // net_.seed is excluded: the trial seed overrides it per trial.
}

}  // namespace sskel
