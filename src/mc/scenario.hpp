// ScenarioFactory: seeded trial generators for the Monte-Carlo engine.
//
// A scenario is "one way to produce an adversary": random Psrcs(k)
// graphs, crash failures, partitions, rotating stars, or a full
// partially synchronous network. The Monte-Carlo engine
// (McTilePlane, mc/mc_plane.hpp) only sees the factory interface, so
// every experiment — abstract-model and network-backed alike —
// aggregates through one code path. A trial is a pure function of its
// seed, so results are reproducible and tile-count independent.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/partition.hpp"
#include "adversary/random_psrcs.hpp"
#include "kset/runner.hpp"
#include "net/driver.hpp"
#include "net/kset_net.hpp"
#include "net/link.hpp"
#include "rounds/trace.hpp"

namespace sskel {

/// One trial's outcome: the substrate-agnostic report plus network
/// accounting when the scenario is network-backed.
struct ScenarioTrial {
  KSetRunReport kset;
  bool net_backed = false;
  std::int64_t delivered_messages = 0;
  std::int64_t late_messages = 0;
  std::int64_t lost_messages = 0;
  /// Always 0 (NetRoundDriver::credit_stalls); kept so checkpoints and
  /// the folds over this field stay byte-identical.
  std::int64_t credit_stalls = 0;
  SimTime wall_clock = 0;  // simulated microseconds; 0 off-network
};

/// A seeded generator of independent trials. Implementations must make
/// run_trial a pure function of (seed, config) — no mutable state — so
/// the Monte-Carlo engine can run trials on any thread in any order.
class ScenarioFactory {
 public:
  virtual ~ScenarioFactory() = default;
  ScenarioFactory(const ScenarioFactory&) = delete;
  ScenarioFactory& operator=(const ScenarioFactory&) = delete;

  /// Scenario name for reports/tables (e.g. "random-psrcs").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Number of processes in every trial.
  [[nodiscard]] virtual ProcId n() const = 0;

  /// Appends every constructor parameter that shapes trial outcomes
  /// to `out` — an identity byte string, not a wire format. The
  /// campaign fingerprint (CampaignSpec::fingerprint) mixes this in so
  /// a checkpoint refuses a resume under a scenario whose parameters
  /// drifted (same class, different crashes/noise/...). Pure virtual
  /// on purpose: a new scenario cannot silently opt out and reopen
  /// that hole. Two instances producing different trial distributions
  /// must never append identical bytes.
  virtual void append_fingerprint(std::vector<std::uint8_t>& out) const = 0;

  /// Runs one independent trial with the given seed.
  [[nodiscard]] virtual ScenarioTrial run_trial(
      std::uint64_t seed, const KSetRunConfig& config) const = 0;

  /// Opaque per-worker trial state a scenario may reuse across trials
  /// (persistent engine + process objects — DESIGN.md §13). Purity is
  /// preserved: a trial run with scratch must be bit-identical to one
  /// run without (the scheduler-equivalence tripwire pins this). One
  /// scratch must only serve one trial at a time.
  class Scratch {
   public:
    virtual ~Scratch() = default;
  };

  /// Creates worker scratch, or nullptr when the scenario has no
  /// reusable state (the default). The engine keeps one per
  /// worker/tile and threads it through run_trial.
  [[nodiscard]] virtual std::unique_ptr<Scratch> make_scratch() const {
    return nullptr;
  }

  /// Scratch-aware trial; the default ignores the scratch and
  /// delegates to the pure overload.
  [[nodiscard]] virtual ScenarioTrial run_trial(std::uint64_t seed,
                                                const KSetRunConfig& config,
                                                Scratch* scratch) const {
    (void)scratch;
    return run_trial(seed, config);
  }

  /// Re-runs trial `seed` with a trace recorder attached and returns
  /// the SSKT-encodable capture — the campaign engine's crash-artifact
  /// path for misbehaving trials. Purity makes this exact: the re-run
  /// is the same run. Returns nullopt when the scenario cannot record
  /// (network-backed trials — the default). Off the hot path; no
  /// scratch reuse.
  [[nodiscard]] virtual std::optional<RunCapture> capture_trial(
      std::uint64_t seed, const KSetRunConfig& config) const {
    (void)seed;
    (void)config;
    return std::nullopt;
  }

 protected:
  ScenarioFactory() = default;
};

/// Random graphs satisfying Psrcs(k) by construction (experiments E2,
/// E4, E5, E8). The seed picks cores, hubs and noise.
class RandomPsrcsScenario final : public ScenarioFactory {
 public:
  explicit RandomPsrcsScenario(RandomPsrcsParams params)
      : params_(params) {}

  [[nodiscard]] std::string name() const override { return "random-psrcs"; }
  [[nodiscard]] ProcId n() const override { return params_.n; }
  void append_fingerprint(std::vector<std::uint8_t>& out) const override;
  [[nodiscard]] ScenarioTrial run_trial(
      std::uint64_t seed, const KSetRunConfig& config) const override;
  [[nodiscard]] std::unique_ptr<Scratch> make_scratch() const override;
  [[nodiscard]] ScenarioTrial run_trial(std::uint64_t seed,
                                        const KSetRunConfig& config,
                                        Scratch* scratch) const override;
  [[nodiscard]] std::optional<RunCapture> capture_trial(
      std::uint64_t seed, const KSetRunConfig& config) const override;

  [[nodiscard]] const RandomPsrcsParams& params() const { return params_; }

 private:
  RandomPsrcsParams params_;
};

/// Classic synchronous crash failures (experiment E7's model): the
/// seed picks victims, crash rounds and partial-broadcast receivers.
class CrashScenario final : public ScenarioFactory {
 public:
  CrashScenario(ProcId n, int crashes, Round max_crash_round);

  [[nodiscard]] std::string name() const override { return "crash"; }
  [[nodiscard]] ProcId n() const override { return n_; }
  void append_fingerprint(std::vector<std::uint8_t>& out) const override;
  [[nodiscard]] ScenarioTrial run_trial(
      std::uint64_t seed, const KSetRunConfig& config) const override;
  [[nodiscard]] std::unique_ptr<Scratch> make_scratch() const override;
  [[nodiscard]] ScenarioTrial run_trial(std::uint64_t seed,
                                        const KSetRunConfig& config,
                                        Scratch* scratch) const override;
  [[nodiscard]] std::optional<RunCapture> capture_trial(
      std::uint64_t seed, const KSetRunConfig& config) const override;

 private:
  ProcId n_;
  int crashes_;
  Round max_crash_round_;
};

/// Partitioned systems (the paper's motivating k > 1 scenario): fixed
/// blocks, seeded transient cross-block noise.
class PartitionScenario final : public ScenarioFactory {
 public:
  explicit PartitionScenario(PartitionParams params);

  [[nodiscard]] std::string name() const override { return "partition"; }
  [[nodiscard]] ProcId n() const override { return n_; }
  void append_fingerprint(std::vector<std::uint8_t>& out) const override;
  [[nodiscard]] ScenarioTrial run_trial(
      std::uint64_t seed, const KSetRunConfig& config) const override;
  [[nodiscard]] std::unique_ptr<Scratch> make_scratch() const override;
  [[nodiscard]] ScenarioTrial run_trial(std::uint64_t seed,
                                        const KSetRunConfig& config,
                                        Scratch* scratch) const override;
  [[nodiscard]] std::optional<RunCapture> capture_trial(
      std::uint64_t seed, const KSetRunConfig& config) const override;

 private:
  PartitionParams params_;
  ProcId n_;
};

/// Rotating stars (experiment E12): per-round synchrony with zero
/// perpetual synchrony. Deterministic per trial except the initial
/// center, which the seed picks — Psrcs fails by design, so this is
/// the engine's negative control.
class RotatingScenario final : public ScenarioFactory {
 public:
  explicit RotatingScenario(ProcId n, Round hold = 1);

  [[nodiscard]] std::string name() const override { return "rotating-star"; }
  [[nodiscard]] ProcId n() const override { return n_; }
  void append_fingerprint(std::vector<std::uint8_t>& out) const override;
  [[nodiscard]] ScenarioTrial run_trial(
      std::uint64_t seed, const KSetRunConfig& config) const override;
  [[nodiscard]] std::unique_ptr<Scratch> make_scratch() const override;
  [[nodiscard]] ScenarioTrial run_trial(std::uint64_t seed,
                                        const KSetRunConfig& config,
                                        Scratch* scratch) const override;
  [[nodiscard]] std::optional<RunCapture> capture_trial(
      std::uint64_t seed, const KSetRunConfig& config) const override;

 private:
  ProcId n_;
  Round hold_;
};

/// Network-backed trials (experiment E11): Algorithm 1 over the
/// partially synchronous network driver. The trial seed overrides
/// net.seed (delay sampling); links and skews are fixed.
class NetScenario final : public ScenarioFactory {
 public:
  NetScenario(LinkMatrix links, NetConfig net);

  [[nodiscard]] std::string name() const override { return "net"; }
  [[nodiscard]] ProcId n() const override { return links_.n(); }
  void append_fingerprint(std::vector<std::uint8_t>& out) const override;
  [[nodiscard]] ScenarioTrial run_trial(
      std::uint64_t seed, const KSetRunConfig& config) const override;

 private:
  LinkMatrix links_;
  NetConfig net_;
};

}  // namespace sskel
