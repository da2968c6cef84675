// Runtime monitors for the paper's approximation lemmas.
//
// The correctness of Algorithm 1 rests on a chain of structural claims
// relating each process's approximation graph G_p^r to the true
// skeleton G∩r (Observation 1, Lemmas 3-7, Theorem 8) and on estimate
// invariants (Observation 2, Lemma 12). This monitor re-checks those
// claims mechanically, round by round, on live runs: a test or bench
// attaches it next to the algorithm and asserts `violations().empty()`
// at the end. Because the lemmas are proved for *every* communication
// pattern ("our algorithm yields a correct approximation atop of any
// communication predicate"), the monitor is also run on runs that do
// NOT satisfy Psrcs(k).
//
// Cost: the per-round sweep is O(n^3)-ish with full history; monitors
// are test/verification equipment, not part of the algorithm. The
// skeleton-derived inputs of every check (SCC decomposition, induced
// component subgraphs) are cached on the tracker's version stamp, so
// rounds that leave the skeleton untouched — the entire tail after
// r_ST — reuse them instead of re-running Tarjan per process.
#pragma once

#include <string>
#include <vector>

#include "graph/labeled_digraph.hpp"
#include "skeleton/tracker.hpp"
#include "util/types.hpp"
#include "util/versioned_cache.hpp"

namespace sskel {

class StructureInternTable;

/// What a lemma monitor needs to see of one process at the end of a
/// round. The k-set runner fills these from the algorithm state.
struct ProcessSnapshot {
  LabeledDigraph approx;           // G_p^r (end of round r)
  ProcSet pt;                      // PT_p variable (end of round r)
  Value estimate = kNoValue;       // x_p^r
  bool decided = false;            // decided_p
  bool decided_via_message = false;  // decided through Line 12
  Round decision_round = 0;        // 0 when undecided
};

/// Which checks to run (they differ in cost).
struct LemmaChecks {
  bool observation1 = true;  // p in G_p; no stale labels
  bool lemma3 = true;        // PT_p == PT(p, r); fresh self-row labels
  bool lemma5 = true;        // C_p^r subseteq G_p^r for r >= n
  bool lemma6 = true;        // labels certify skeleton membership
  bool lemma7 = true;        // strongly connected G_p^R subseteq C_p^{R-n+1}
  bool theorem8 = true;      // SC graphs closed under stable components
  bool estimates = true;     // Observation 2 + Lemma 12
};

class LemmaMonitor {
 public:
  /// n is both the process count and the purge window of Algorithm 1.
  explicit LemmaMonitor(ProcId n, LemmaChecks checks = {});

  /// Feeds one completed round. `snapshots[p]` is process p's end-of-
  /// round state; `comm_graph` is G^r (with self-loops).
  void observe_round(Round r, const Digraph& comm_graph,
                     const std::vector<ProcessSnapshot>& snapshots);

  /// Runs the end-of-run checks (Theorem 8 against the last skeleton,
  /// which equals G∩∞ provided the run extends past stabilization;
  /// callers ensure that by running a stabilized source long enough).
  void finalize();

  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }

  [[nodiscard]] const SkeletonTracker& tracker() const { return tracker_; }

  /// Attaches a run-scoped intern table. The monitor's tracker
  /// resolves its analytics through the table, and Lemma 7's per-round
  /// base-skeleton decomposition is served from the interned entry's
  /// memoized Tarjan instead of recomputed — one decomposition per
  /// *distinct* historical skeleton for the whole run (and across
  /// trials sharing the table) rather than one per round. Call it once,
  /// with a non-null table, before the first observe_round: a null
  /// table aborts, and so does a call after the monitor's first
  /// analytics query (SkeletonTracker::attach_intern). The table must
  /// outlive the monitor and, like the tracker, stay on one thread.
  void attach_intern(StructureInternTable* table);

  /// Lemma 7 base decompositions served from an interned entry vs
  /// computed privately (table detached, full, or n mismatch).
  [[nodiscard]] std::int64_t lemma7_interned_bases() const {
    return lemma7_interned_bases_;
  }
  [[nodiscard]] std::int64_t lemma7_private_bases() const {
    return lemma7_private_bases_;
  }

  /// Recomputation count of the cached induced-component-subgraph
  /// analytics (for the cache-invalidation property tests; equals
  /// skeleton version bumps + 1 when queried every round).
  [[nodiscard]] std::int64_t analytics_recomputes() const {
    return induced_components_.recomputes();
  }

 private:
  void report(Round r, ProcId p, const std::string& what);

  /// Induced subgraph of the current skeleton's component containing
  /// p, served from the version-keyed cache. On a version bump the
  /// cache is *patched* in place: the tracker's component_origin() map
  /// says which components survived the shrink untouched, and their
  /// induced graphs are moved over instead of rebuilt — only split or
  /// rebuilt components pay for a fresh induced() pass.
  [[nodiscard]] const Digraph& component_graph(ProcId p);

  ProcId n_;
  LemmaChecks checks_;
  SkeletonTracker tracker_;
  StructureInternTable* intern_ = nullptr;
  std::int64_t lemma7_interned_bases_ = 0;
  std::int64_t lemma7_private_bases_ = 0;
  /// induced[c] = skeleton restricted to component c of current_scc(),
  /// plus a trailing empty graph serving nodes absent from the
  /// skeleton.
  mutable VersionedCache<std::vector<Digraph>> induced_components_;
  /// Tracker analytics generation the cached induced graphs belong to;
  /// component_origin() is only a valid carry map when we consumed the
  /// immediately preceding generation.
  mutable std::int64_t induced_generation_ = -1;
  std::vector<std::string> violations_;
  std::vector<Value> prev_estimates_;
  /// First strongly-connected approximation snapshot per process, for
  /// the Theorem 8 finalize pass: (round, graph).
  std::vector<std::pair<Round, LabeledDigraph>> first_sc_;
};

}  // namespace sskel
