#include "predicates/analysis.hpp"

#include "graph/scc.hpp"
#include "predicates/psrcs.hpp"

namespace sskel {

std::optional<int> min_psrcs_k(const Digraph& skeleton) {
  const ProcId n = skeleton.n();
  if (n < 2) return 1;  // vacuous: no subsets of size >= 2
  // Psrcs is monotone in k, so the first passing k is the smallest.
  for (int k = 1; k < n; ++k) {
    if (check_psrcs_exact(skeleton, k).holds) return k;
  }
  return std::nullopt;  // even Psrcs(n-1) fails
}

const PsrcsCheck& SkeletonPredicateCache::psrcs_exact(const Digraph& skeleton,
                                                      std::uint64_t version,
                                                      int k) {
  for (auto& [cached_k, cache] : psrcs_by_k_) {
    if (cached_k == k) {
      return cache.get(version,
                       [&] { return check_psrcs_exact(skeleton, k); });
    }
  }
  psrcs_by_k_.emplace_back(k, VersionedCache<PsrcsCheck>{});
  return psrcs_by_k_.back().second.get(
      version, [&] { return check_psrcs_exact(skeleton, k); });
}

std::int64_t SkeletonPredicateCache::psrcs_recomputes() const {
  std::int64_t total = 0;
  for (const auto& [k, cache] : psrcs_by_k_) total += cache.recomputes();
  return total;
}

PredicateProfile profile_skeleton(const Digraph& skeleton) {
  PredicateProfile profile;
  profile.root_components =
      static_cast<int>(root_components(skeleton).size());
  const auto k = min_psrcs_k(skeleton);
  profile.min_k = k.value_or(skeleton.n());
  profile.theorem1_consistent = profile.root_components <= profile.min_k;
  return profile;
}

}  // namespace sskel
