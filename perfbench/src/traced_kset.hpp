// Traced Algorithm 1 trials: the same runs the library's scenarios
// make, with a span around every call into a layer.
//
// run_kset_on_engine downcasts the engine's processes to
// SkeletonKSetProcess, so a forwarding process cannot go through it.
// These scenarios therefore drive the round loop themselves, mirroring
// run_kset (its scratch-reuse path) and run_kset_over_network: the
// same process construction and reset, the same intern-shard binding
// for processes and tracker, the same stop rule and the same report.
// The benchmark checks that every traced trial reproduces the
// untraced report for the same seed, so any drift in that mirror
// fails the run instead of skewing the per-layer numbers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mc/scenario.hpp"
#include "net/driver.hpp"
#include "net/link.hpp"
#include "rounds/graph_source.hpp"

namespace perfbench {

/// A traced twin of a simulator-backed scenario: identity (name, n,
/// fingerprint) from `real`, graphs from `make_source(seed)`.
class TracedSimScenario final : public sskel::ScenarioFactory {
 public:
  using SourceFactory =
      std::function<std::unique_ptr<sskel::GraphSource>(std::uint64_t seed)>;

  TracedSimScenario(const sskel::ScenarioFactory& real,
                    SourceFactory make_source);

  [[nodiscard]] std::string name() const override { return real_->name(); }
  [[nodiscard]] sskel::ProcId n() const override { return real_->n(); }
  void append_fingerprint(std::vector<std::uint8_t>& out) const override {
    real_->append_fingerprint(out);
  }
  [[nodiscard]] sskel::ScenarioTrial run_trial(
      std::uint64_t seed, const sskel::KSetRunConfig& config) const override;
  [[nodiscard]] std::unique_ptr<Scratch> make_scratch() const override;
  [[nodiscard]] sskel::ScenarioTrial run_trial(
      std::uint64_t seed, const sskel::KSetRunConfig& config,
      Scratch* scratch) const override;

 private:
  const sskel::ScenarioFactory* real_;
  SourceFactory make_source_;
};

/// The traced twin of `real`, a NetScenario built from the same
/// (links, net).
class TracedNetScenario final : public sskel::ScenarioFactory {
 public:
  TracedNetScenario(const sskel::ScenarioFactory& real,
                    sskel::LinkMatrix links, sskel::NetConfig net);

  [[nodiscard]] std::string name() const override { return real_->name(); }
  [[nodiscard]] sskel::ProcId n() const override { return real_->n(); }
  void append_fingerprint(std::vector<std::uint8_t>& out) const override {
    real_->append_fingerprint(out);
  }
  [[nodiscard]] sskel::ScenarioTrial run_trial(
      std::uint64_t seed, const sskel::KSetRunConfig& config) const override;

 private:
  const sskel::ScenarioFactory* real_;
  sskel::LinkMatrix links_;
  sskel::NetConfig net_;
};

}  // namespace perfbench
