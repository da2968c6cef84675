// The communication predicate Psrcs(k) and its machinery (Sec. III).
//
// For a run with stable skeleton G∩∞:
//
//   Psrc(p, S)  ::  exists q != q' in S with p in PT(q) cap PT(q')
//   Psrcs(k)    ::  for all S with |S| = k+1, exists p: Psrc(p, S)
//
// In graph terms: p is a *2-source* for S when p has stable edges to
// two distinct members of S (p may itself be one of them — self-loops
// count). Everything here operates on an explicit skeleton graph, so
// the same checkers validate generated adversaries (against the
// skeleton they promise) and recorded runs (against the skeleton the
// tracker observed).
#pragma once

#include <optional>
#include <vector>

#include "graph/digraph.hpp"
#include "util/rng.hpp"

namespace sskel {

/// Evidence that Psrc(p, S) holds.
struct TwoSourceWitness {
  ProcId source = -1;      // p
  ProcId receiver_a = -1;  // q
  ProcId receiver_b = -1;  // q' (distinct from q)
};

/// Finds a 2-source for the set S in the given skeleton: a process p
/// (anywhere in Pi) with edges to two distinct members of S.
[[nodiscard]] std::optional<TwoSourceWitness> find_two_source(
    const Digraph& skeleton, const ProcSet& s);

/// Result of a Psrcs(k) check.
struct PsrcsCheck {
  bool holds = false;
  /// When violated: a (k+1)-subset with no 2-source.
  std::optional<ProcSet> violating_subset;
  /// Number of subsets examined: sourceless partial subsets
  /// materialized by the branch-and-bound procedure, full
  /// (k+1)-subsets for the brute-force oracle in
  /// tests/oracles/psrcs_bruteforce.hpp (cost diagnostics).
  std::int64_t subsets_checked = 0;
  /// True when the verdict is a proof: every verdict of the exact and
  /// brute-force checkers, and a sampled *violation* (the witness is
  /// the proof). A sampled pass sets this to false — it only says no
  /// violating subset was drawn.
  bool certified = true;
  /// Statistical weight of the verdict, in [0, 1]. Certified verdicts
  /// carry 1.0. For an uncertified sampled pass this is the
  /// (1 - delta)-style bound P(detect a violation | one exists): if
  /// Psrcs(k) is false at least one of the C(n, k+1) subsets is
  /// sourceless, so each uniform sample hits a violator with
  /// probability >= 1/C(n, k+1) and s misses give
  ///   confidence = 1 - (1 - 1/C(n, k+1))^s.
  /// Conservative (assumes a single violator) and vanishingly small
  /// for large n unless samples scale with C(n, k+1) — which is
  /// exactly the caveat callers must surface instead of treating the
  /// verdict as an exact certificate.
  double confidence = 1.0;
};

/// Exact decision procedure for Psrcs(k): branch-and-bound search for
/// a "sourceless" (k+1)-subset (a set S such that no process has
/// stable edges to two distinct members of S — exactly a violator of
/// Eq. (8)). Instead of enumerating all C(n, k+1) subsets it grows
/// sourceless partial subsets only:
///   * per-candidate conflict bitsets ("everything sharing a 2-source
///     with v") are precomputed once from the out-neighborhood rows,
///     so extending a partial subset is one word-parallel OR;
///   * any extension already witnessed by a 2-source is pruned at
///     O(1) via the accumulated conflict mask;
///   * candidates are tried in ascending in-coverage order (sparsely
///     covered processes first), which finds violating subsets early;
///   * branches that cannot reach size k+1 are cut by a remaining-
///     candidates bound.
/// Same contract and verdicts as the literal Eq. (8) enumeration over
/// every (k+1)-subset of Pi (the oracle in
/// tests/oracles/psrcs_bruteforce.hpp), orders of magnitude fewer
/// subsets visited on non-trivial instances; the violating witness may
/// differ (any sourceless (k+1)-subset is a valid witness).
[[nodiscard]] PsrcsCheck check_psrcs_exact(const Digraph& skeleton, int k);

/// Randomized refutation search: samples `samples` subsets of size
/// k+1 and reports a violation if one is found. Never proves the
/// predicate, but scales to any n; used by large-n benches as a
/// sanity screen. A found violation is certified (the subset is a
/// witness); a pass is returned with certified = false and the
/// miss-probability confidence bound documented on PsrcsCheck, so a
/// sampled pass can no longer masquerade as an exact verdict.
[[nodiscard]] PsrcsCheck check_psrcs_sampled(const Digraph& skeleton, int k,
                                             int samples, Rng& rng);

/// C(n, k) evaluated in double precision (exact while representable,
/// +inf on overflow). Exposed for tests pinning the sampled-verdict
/// confidence bound.
[[nodiscard]] double binomial_double(int n, int k);

/// A *hub cover* of size m is a set H of m processes such that every
/// process has a stable in-edge from some member of H. By pigeonhole,
/// a hub cover of size <= k implies Psrcs(k): any k+1 processes
/// include two sharing a hub. This is the constructive sufficient
/// condition our random adversaries are built around.
///
/// Returns a greedy (not necessarily minimum) hub cover, or nullopt if
/// some process has no stable in-edge at all (impossible once
/// self-loops are closed: {p covers p} always works, so the greedy
/// cover is at most n).
[[nodiscard]] std::optional<ProcSet> greedy_hub_cover(const Digraph& skeleton);

/// True iff `hubs` is a hub cover of the skeleton.
[[nodiscard]] bool is_hub_cover(const Digraph& skeleton, const ProcSet& hubs);

}  // namespace sskel
