// Reference loops for the hub-cover certificate and the 2-source
// search.
//
// These are greedy_hub_cover and find_two_source written the plain
// way: every candidate's receivers are materialized as a set and then
// counted. The library counts the intersection in place
// (ProcSet::intersection_count) and builds no set per candidate; the
// tripwires in tests/predicates/psrcs_test.cpp demand the same cover,
// member for member, and the same witness.
#pragma once

#include <optional>

#include "graph/digraph.hpp"
#include "predicates/psrcs.hpp"
#include "util/proc_set.hpp"

namespace sskel::oracles {

/// The first process (ascending) with edges to two distinct members
/// of `s`, with its two smallest such receivers.
[[nodiscard]] inline std::optional<TwoSourceWitness> find_two_source(
    const Digraph& skeleton, const ProcSet& s) {
  for (ProcId p : skeleton.nodes()) {
    const ProcSet receivers = skeleton.out_neighbors(p) & s;
    if (receivers.count() >= 2) {
      const ProcId a = receivers.first();
      const ProcId b = receivers.next_after(a);
      return TwoSourceWitness{p, a, b};
    }
  }
  return std::nullopt;
}

/// Greedy hub cover: repeatedly picks the smallest process covering
/// the most uncovered receivers; nullopt when some process hears
/// nobody.
[[nodiscard]] inline std::optional<ProcSet> greedy_hub_cover(
    const Digraph& skeleton) {
  const ProcId n = skeleton.n();
  ProcSet uncovered = skeleton.nodes();
  ProcSet hubs(n);
  while (!uncovered.empty()) {
    ProcId best = -1;
    int best_cover = 0;
    for (ProcId p : skeleton.nodes()) {
      const int c = (skeleton.out_neighbors(p) & uncovered).count();
      if (c > best_cover) {
        best_cover = c;
        best = p;
      }
    }
    if (best == -1) return std::nullopt;
    hubs.insert(best);
    uncovered -= skeleton.out_neighbors(best);
  }
  return hubs;
}

}  // namespace sskel::oracles
