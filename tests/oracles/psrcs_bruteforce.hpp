// The literal Eq. (8) enumeration of Psrcs(k).
//
// check_psrcs_bruteforce visits every (k+1)-subset of Pi, absent nodes
// included, and asks find_two_source about each: cost C(n, k+1). It is
// the reference that check_psrcs_exact's branch-and-bound and
// min_psrcs_k are held to in tests/predicates/, and the subset-count
// baseline that bench_micro and bench_theorem1 report next to the
// pruned search. Intended for n <= ~24 or small k.
#pragma once

#include <functional>
#include <numeric>
#include <vector>

#include "graph/digraph.hpp"
#include "predicates/psrcs.hpp"
#include "util/assert.hpp"
#include "util/proc_set.hpp"

namespace sskel::oracles {

/// Enumerates all subsets of `universe_members` with exactly `k`
/// elements, invoking `fn(const ProcSet&)` for each; intended for
/// small k and n (cost is C(n, k)). `fn` returning false aborts the
/// enumeration early; the function returns false in that case, true
/// when all subsets were visited.
inline bool for_each_subset(const ProcSet& universe_members, int k,
                            const std::function<bool(const ProcSet&)>& fn) {
  SSKEL_REQUIRE(k >= 0);
  const std::vector<ProcId> members = universe_members.to_vector();
  const int m = static_cast<int>(members.size());
  if (k > m) return true;  // no subsets to visit

  // Standard lexicographic k-combination walk over the member list.
  std::vector<int> idx(static_cast<std::size_t>(k));
  std::iota(idx.begin(), idx.end(), 0);
  while (true) {
    ProcSet subset(universe_members.universe());
    for (int i : idx) subset.insert(members[static_cast<std::size_t>(i)]);
    if (!fn(subset)) return false;

    // Advance to the next combination.
    int i = k - 1;
    while (i >= 0 && idx[static_cast<std::size_t>(i)] == m - k + i) --i;
    if (i < 0) return true;
    ++idx[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < k; ++j) {
      idx[static_cast<std::size_t>(j)] =
          idx[static_cast<std::size_t>(j - 1)] + 1;
    }
  }
}

/// Psrcs(k) by enumeration: holds iff every (k+1)-subset of Pi has a
/// 2-source. On a violation, the first sourceless subset in
/// lexicographic order is the witness; subsets_checked counts the
/// subsets visited up to and including it.
[[nodiscard]] inline PsrcsCheck check_psrcs_bruteforce(
    const Digraph& skeleton, int k) {
  SSKEL_REQUIRE(k >= 1);
  PsrcsCheck result;
  result.holds = true;
  for_each_subset(ProcSet::full(skeleton.n()), k + 1,
                  [&](const ProcSet& subset) {
                    ++result.subsets_checked;
                    // Qualified: oracles/hub_cover.hpp declares its own
                    // find_two_source in this namespace.
                    if (!sskel::find_two_source(skeleton, subset)) {
                      result.holds = false;
                      result.violating_subset = subset;
                      return false;  // stop at the first counterexample
                    }
                    return true;
                  });
  return result;
}

}  // namespace sskel::oracles
