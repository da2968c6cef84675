// KSetRunner: the one-call harness for running Algorithm 1 on any
// round-execution substrate and collecting everything an experiment
// needs.
//
// Wires up one SkeletonKSetProcess per process, a skeleton tracker
// (for r_ST and root components), optional lemma monitors, and
// optional message-size accounting; runs until every process decides
// (plus an optional tail); and returns a structured report. The core
// entry point takes a RoundEngine<SkeletonMessage> — deterministic
// simulator or partially synchronous network alike — so the analysis
// stack is substrate-agnostic. run_kset(GraphSource&, ...) remains the
// convenience wrapper for the common simulator case. Examples, tests
// and benches all go through these entry points.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "kset/skeleton_kset.hpp"
#include "kset/verify.hpp"
#include "rounds/engine.hpp"
#include "rounds/graph_source.hpp"
#include "skeleton/lemmas.hpp"

namespace sskel {

class InternDomain;

struct KSetRunConfig {
  /// The k of k-set agreement (used for the verdict; the algorithm
  /// itself is k-oblivious — k enters only through the predicate the
  /// source satisfies).
  int k = 1;

  /// Proposals v_p; must have size n. Empty = distinct values 100*p+7.
  std::vector<Value> proposals;

  DecisionGuard guard = DecisionGuard::kAfterRoundN;

  /// Hard stop; 0 selects 8n + 32 rounds.
  Round max_rounds = 0;

  /// Rounds to keep simulating after the last decision (exercises the
  /// post-decision code paths and lets the skeleton settle).
  Round tail_rounds = 0;

  /// Attach the LemmaMonitor (O(n^3)/round; for tests and small n).
  bool attach_lemma_monitor = false;
  LemmaChecks checks;

  /// Install the wire codec as message sizer (experiment E5).
  bool measure_bytes = false;

  /// Optional structure interning (skeleton/intern.hpp, DESIGN.md
  /// §10), non-owning and opt-in: the skeleton tracker (and the lemma
  /// monitor, when attached) resolve their skeletons through the
  /// calling thread's shard of this domain. The processes never
  /// intern; they answer Lines 25 and 28 from their own rows. The
  /// domain must outlive the run. McTilePlane passes it through and
  /// supplies none of its own.
  InternDomain* intern = nullptr;
};

struct KSetRunReport {
  ProcId n = 0;
  std::vector<Outcome> outcomes;
  std::vector<DecisionPath> paths;
  KSetVerdict verdict;  // k-agreement/validity/termination w.r.t. config.k
  bool all_decided = false;
  Round rounds_executed = 0;
  Round last_decision_round = 0;
  int distinct_values = 0;

  /// Final skeleton G∩R of the run and the last round that changed it
  /// (equals r_ST once the source has stabilized).
  Digraph final_skeleton;
  Round skeleton_last_change = 0;
  std::vector<ProcSet> root_components_final;

  /// Message accounting (bytes only when measure_bytes).
  std::int64_t total_messages = 0;
  std::int64_t total_bytes = 0;
  std::int64_t max_message_bytes = 0;

  std::vector<std::string> lemma_violations;

  /// Lemma 11's termination bound for this run's guard:
  /// max(r_ST, 1) + 2n - 1, plus 1 for the strict Line-28 guard.
  [[nodiscard]] Round termination_bound(DecisionGuard guard) const;

  bool operator==(const KSetRunReport&) const = default;
};

/// Builds the Algorithm 1 process vector for any substrate: one
/// SkeletonKSetProcess per id with the config's proposals and guard.
[[nodiscard]] std::vector<std::unique_ptr<Algorithm<SkeletonMessage>>>
make_kset_processes(ProcId n, const KSetRunConfig& config);

/// Runs Algorithm 1 on an engine already populated with processes from
/// make_kset_processes() until all of them decide (or max_rounds),
/// plus tail_rounds. Works identically over Simulator and
/// NetRoundDriver. The engine must be freshly constructed (no rounds
/// executed yet). The report's verdict has no round bound applied; use
/// termination_bound() to check Lemma 11.
[[nodiscard]] KSetRunReport run_kset_on_engine(
    RoundEngine<SkeletonMessage>& engine, const KSetRunConfig& config);

/// Convenience wrapper: processes + Simulator over `source`, then
/// run_kset_on_engine.
[[nodiscard]] KSetRunReport run_kset(GraphSource& source,
                                     const KSetRunConfig& config);

/// Reusable across-trial state for run_kset: the Simulator (round
/// graph + outbox storage) and the n process objects survive between
/// trials, so a repeat trial costs n process *resets* instead of n
/// process constructions plus an engine construction — the dominant
/// fixed cost of small-n Monte-Carlo (DESIGN.md §13). One scratch
/// serves one thread; the tile plane keeps one per tile.
///
/// The scratch is revalidated per call: a different n or decision
/// guard rebuilds the engine, and the tracker's intern-table binding
/// (when config.intern is set) is refreshed from the *calling
/// thread's* shard every trial, so a scratch is safe across configs
/// and (sequentially) across threads.
class KSetTrialScratch {
 public:
  KSetTrialScratch();
  ~KSetTrialScratch();
  KSetTrialScratch(KSetTrialScratch&&) noexcept;
  KSetTrialScratch& operator=(KSetTrialScratch&&) noexcept;

  /// Trials served by reusing the persistent engine (vs rebuilt).
  [[nodiscard]] std::int64_t reuses() const;

 private:
  friend KSetRunReport run_kset(GraphSource& source,
                                const KSetRunConfig& config,
                                KSetTrialScratch& scratch);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// run_kset with persistent engine/process reuse. Reports are
/// bit-identical to the scratch-free overload (the scheduler
/// equivalence tripwire pins this).
[[nodiscard]] KSetRunReport run_kset(GraphSource& source,
                                     const KSetRunConfig& config,
                                     KSetTrialScratch& scratch);

/// Default distinct proposals (100*p + 7) for n processes.
[[nodiscard]] std::vector<Value> default_proposals(ProcId n);

struct RunCapture;

/// run_kset with a TraceRecorder attached: the report is bit-identical
/// to run_kset over the same source/config (the recorder only
/// observes), and `capture` receives the full SSKT-encodable run —
/// per-round graphs and engine accounting, stamped with `seed` in the
/// header. This is the campaign's misbehaving-trial capture path: a
/// flagged seed is re-run through here and the capture written as a
/// crash artifact, so replaying the artifact reproduces the exact run.
[[nodiscard]] KSetRunReport run_kset_recorded(GraphSource& source,
                                              const KSetRunConfig& config,
                                              std::uint64_t seed,
                                              RunCapture& capture);

}  // namespace sskel
