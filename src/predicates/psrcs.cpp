#include "predicates/psrcs.hpp"

#include <algorithm>
#include <cmath>

namespace sskel {

double binomial_double(int n, int k) {
  if (k < 0 || k > n) return 0.0;
  if (k > n - k) k = n - k;
  double c = 1.0;
  for (int i = 1; i <= k; ++i) {
    c *= static_cast<double>(n - k + i);
    c /= static_cast<double>(i);
  }
  return c;
}

std::optional<TwoSourceWitness> find_two_source(const Digraph& skeleton,
                                                const ProcSet& s) {
  SSKEL_REQUIRE(s.universe() == skeleton.n());
  for (ProcId p : skeleton.nodes()) {
    const ProcSet& out = skeleton.out_neighbors(p);
    if (out.intersection_count(s) < 2) continue;
    const ProcSet receivers = out & s;
    const ProcId a = receivers.first();
    return TwoSourceWitness{p, a, receivers.next_after(a)};
  }
  return std::nullopt;
}

namespace {

/// Branch-and-bound state for the sourceless-subset search. A subset
/// S violates Psrcs(k) iff |S| = k+1 and no process has out-edges to
/// two distinct members; the search grows sourceless subsets member
/// by member and therefore never touches the C(n, k+1) - (number of
/// sourceless subsets) bulk of the lattice.
struct SourcelessSearch {
  const Digraph& g;
  /// Candidates in ascending in-coverage order.
  std::vector<ProcId> order;
  /// conflicts[v] = processes that share a potential 2-source with v:
  /// the union of out(p) over p in in(v). Adding v to S makes exactly
  /// these ids infeasible, so feasibility of a later candidate is one
  /// bit test against the accumulated mask.
  std::vector<ProcSet> conflicts;
  int target;
  ProcSet current;
  std::int64_t visited = 0;
  std::optional<ProcSet> found;

  /// Extends `current` (of size `size`) with candidates from
  /// order[index..]; `blocked` masks every id whose inclusion would
  /// create a 2-source. Returns true once a sourceless subset of
  /// `target` members is found.
  bool dfs(std::size_t index, const ProcSet& blocked, int size) {
    if (size == target) {
      found = current;
      return true;
    }
    for (std::size_t i = index; i < order.size(); ++i) {
      // Bound: the remaining candidates cannot fill the subset.
      if (size + static_cast<int>(order.size() - i) < target) return false;
      const ProcId v = order[i];
      if (blocked.contains(v)) continue;  // pruned: 2-source witnessed
      ++visited;
      current.insert(v);
      ProcSet next_blocked = blocked;
      next_blocked |= conflicts[static_cast<std::size_t>(v)];
      if (dfs(i + 1, next_blocked, size + 1)) return true;
      current.erase(v);
    }
    return false;
  }
};

}  // namespace

PsrcsCheck check_psrcs_exact(const Digraph& skeleton, int k) {
  SSKEL_REQUIRE(k >= 1);
  const ProcId n = skeleton.n();
  PsrcsCheck result;
  result.holds = true;
  if (k + 1 > n) return result;  // vacuous: no (k+1)-subsets exist

  SourcelessSearch search{skeleton,
                          {},
                          {},
                          k + 1,
                          ProcSet(n),
                          0,
                          std::nullopt};

  // Precompute the per-candidate conflict bitsets from the skeleton's
  // out-neighborhood rows (once per skeleton version — callers that
  // re-check every round go through SkeletonPredicateCache).
  search.conflicts.assign(static_cast<std::size_t>(n), ProcSet(n));
  for (ProcId v = 0; v < n; ++v) {
    ProcSet& c = search.conflicts[static_cast<std::size_t>(v)];
    for (ProcId p : skeleton.in_neighbors(v)) {
      c |= skeleton.out_neighbors(p);
    }
  }

  // Ascending in-coverage: processes heard by few sources pack into
  // sourceless subsets most easily, so violations surface early.
  search.order.reserve(static_cast<std::size_t>(n));
  for (ProcId v = 0; v < n; ++v) search.order.push_back(v);
  std::stable_sort(search.order.begin(), search.order.end(),
                   [&](ProcId a, ProcId b) {
                     return skeleton.in_neighbors(a).count() <
                            skeleton.in_neighbors(b).count();
                   });

  search.dfs(0, ProcSet(n), 0);
  result.subsets_checked = search.visited;
  if (search.found.has_value()) {
    result.holds = false;
    result.violating_subset = std::move(search.found);
  }
  return result;
}

PsrcsCheck check_psrcs_sampled(const Digraph& skeleton, int k, int samples,
                               Rng& rng) {
  SSKEL_REQUIRE(k >= 1);
  SSKEL_REQUIRE(samples >= 0);
  PsrcsCheck result;
  result.holds = true;
  const ProcId n = skeleton.n();
  if (k + 1 > n) return result;  // vacuous

  std::vector<ProcId> ids(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n; ++p) ids[static_cast<std::size_t>(p)] = p;

  for (int trial = 0; trial < samples; ++trial) {
    // Partial Fisher-Yates: the first k+1 slots become a uniform
    // (k+1)-subset.
    for (int i = 0; i <= k; ++i) {
      const std::size_t j =
          static_cast<std::size_t>(i) +
          static_cast<std::size_t>(rng.next_below(
              static_cast<std::uint64_t>(n - i)));
      std::swap(ids[static_cast<std::size_t>(i)], ids[j]);
    }
    ProcSet subset(n);
    for (int i = 0; i <= k; ++i) subset.insert(ids[static_cast<std::size_t>(i)]);
    ++result.subsets_checked;
    if (!find_two_source(skeleton, subset)) {
      // A sampled violation is as good as an exact one: the subset is
      // the certificate. certified/confidence keep their defaults.
      result.holds = false;
      result.violating_subset = subset;
      return result;
    }
  }
  // Sampled pass: not a proof. Report the miss-probability bound —
  // a violator (if any) is hit with probability >= 1/C(n, k+1) per
  // sample, so `samples` misses refute its existence with confidence
  // 1 - (1 - 1/C(n, k+1))^samples, computed via expm1/log1p so tiny
  // per-sample probabilities do not round to zero.
  result.certified = false;
  const double total = binomial_double(n, k + 1);
  // samples == 0 would make `samples * log1p(-1/1)` the 0 * -inf NaN;
  // zero samples refute nothing, so the bound is plainly 0.
  result.confidence =
      samples > 0 && std::isfinite(total) && total >= 1.0
          ? -std::expm1(static_cast<double>(samples) * std::log1p(-1.0 / total))
          : 0.0;
  return result;
}

std::optional<ProcSet> greedy_hub_cover(const Digraph& skeleton) {
  const ProcId n = skeleton.n();
  ProcSet uncovered = skeleton.nodes();
  ProcSet hubs(n);
  while (!uncovered.empty()) {
    // Pick the process covering the most uncovered receivers.
    ProcId best = -1;
    int best_cover = 0;
    for (ProcId p : skeleton.nodes()) {
      const int c = skeleton.out_neighbors(p).intersection_count(uncovered);
      if (c > best_cover) {
        best_cover = c;
        best = p;
      }
    }
    if (best == -1) return std::nullopt;  // some process hears nobody
    hubs.insert(best);
    uncovered -= skeleton.out_neighbors(best);
  }
  return hubs;
}

bool is_hub_cover(const Digraph& skeleton, const ProcSet& hubs) {
  ProcSet covered(skeleton.n());
  for (ProcId h : hubs) covered |= skeleton.out_neighbors(h);
  return skeleton.nodes().is_subset_of(covered);
}

}  // namespace sskel
