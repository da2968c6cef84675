// Transient Bernoulli noise for the random adversaries.
//
// RandomPsrcsSource and PartitionSource both build a round graph as
// their stable edges plus noise: every ordered pair (q, p) that is not
// a stable edge becomes an edge independently with some probability.
// This is the one kernel both call. It is bit-exact with the pairwise
// loop
//
//   for q in 0..n-1, for p in 0..n-1:
//     if (!g.has_edge(q, p) && rng.next_bool(probability))
//       g.add_edge(q, p);
//
// (tests/oracles/pairwise_noise.hpp): the same edges, and the same
// number of draws taken from `rng` (DESIGN.md §7). Per out-row q it
// takes the candidate bits ~row(q) & valid and draws one next_u64 per
// candidate in ascending (q, p) order, accepting a draw x iff
// (x >> 11) < bernoulli_threshold(probability), without a branch. The
// accepted bits land through one bulk Digraph::or_out_rows.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "util/rng.hpp"

namespace sskel {

/// T such that a draw x passes Rng::next_bool(probability) iff
/// (x >> 11) < T, for a draw that next_bool takes: ceil(probability *
/// 2^53) for 0 < probability < 1, 2^53 for probability >= 1, and 0
/// for probability <= 0 or NaN (no NaN reaches a float-to-integer
/// cast).
[[nodiscard]] std::uint64_t bernoulli_threshold(double probability);

/// Adds to `g` each of its non-edges (q, p) with probability
/// `probability`, drawing from `rng` exactly as the pairwise loop
/// above: no draws when probability <= 0, every non-edge and no draws
/// when probability >= 1, and one draw per non-edge otherwise (NaN
/// included, accepting none). `rows` is scratch for the packed noise
/// rows, reused across calls. Every node of `g` must be present.
void add_bernoulli_noise(Digraph& g, double probability, Rng& rng,
                         std::vector<std::uint64_t>& rows);

}  // namespace sskel
