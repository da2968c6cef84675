// Skeleton analysis utilities — the "duality between communication
// predicates and graph-theoretic properties" the paper's future-work
// section points at.
//
// Given a (stable) skeleton these functions answer: what is the
// smallest k for which Psrcs(k) holds? How does that compare to the
// number of root components? The paper shows
//   #root components <= min-k  (Theorem 1)
// and the Theorem 2 construction realizes equality; these helpers make
// the relation measurable on arbitrary skeletons.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "predicates/psrcs.hpp"
#include "util/versioned_cache.hpp"

namespace sskel {

/// Smallest k in [1, n-1] for which Psrcs(k) holds on the skeleton, or
/// nullopt when even Psrcs(n-1) fails (all n processes sourceless, as
/// with self-loops only). Psrcs is monotone in k, so this is the first
/// k that check_psrcs_exact accepts; like that checker it quantifies
/// over every subset of Pi, absent nodes included. n < 2 gives 1: no
/// 2-subsets exist. Exponential in the worst case; intended for
/// n <= ~20.
[[nodiscard]] std::optional<int> min_psrcs_k(const Digraph& skeleton);

/// Theorem 1 gap report for a skeleton: root components vs min-k.
struct PredicateProfile {
  int root_components = 0;
  int min_k = 0;            // smallest k with Psrcs(k), n if none
  bool theorem1_consistent = false;  // root_components <= min_k
};

[[nodiscard]] PredicateProfile profile_skeleton(const Digraph& skeleton);

/// Change-driven predicate evaluation: caches Psrcs(k) verdicts of a
/// monitored skeleton, keyed on the SkeletonTracker's version stamp.
/// Monotonicity (Lemma 1) makes the version a complete invalidation
/// key, so per-round re-evaluation in the post-stabilization tail is a
/// pointer return, not a subset search. Callers pass (skeleton,
/// version) pairs from the same tracker; mixing trackers in one cache
/// is a usage error.
class SkeletonPredicateCache {
 public:
  /// check_psrcs_exact(skeleton, k), recomputed only on version bumps.
  const PsrcsCheck& psrcs_exact(const Digraph& skeleton,
                                std::uint64_t version, int k);

  /// Total underlying Psrcs searches actually run, summed over all k
  /// (for the cache-invalidation property tests).
  [[nodiscard]] std::int64_t psrcs_recomputes() const;

 private:
  std::vector<std::pair<int, VersionedCache<PsrcsCheck>>> psrcs_by_k_;
};

}  // namespace sskel
