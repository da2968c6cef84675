// Heard-Of sets and Round-by-Round fault detector views (Eq. (6), (7)).
//
// The paper's skeleton formalism coincides with two classic models:
//
//   HO model:   HO(p, r)  = processes p hears from in round r
//   RbR FDs:    D(p, r)   = processes p's detector suspects in round r
//                           (p waits for everyone outside D(p, r))
//
// Eq. (6):  (q -> p) in E∩r  <=>  q in HO(p, r') for all r' <= r
//                             <=>  q not in D(p, r') for all r' <= r
// Eq. (7):  PT(p, r) = intersection of HO(p, r'), r' <= r
//                    = Pi minus the union of D(p, r'), r' <= r
//
// HoRecorder materializes both views from a sequence of communication
// graphs, so tests/predicates/ho_view_test.cpp can hold the skeleton
// tracker's PT(p, r) to both forms of Eq. (7).
#pragma once

#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "util/assert.hpp"
#include "util/proc_set.hpp"
#include "util/types.hpp"

namespace sskel::oracles {

class HoRecorder {
 public:
  explicit HoRecorder(ProcId n) : n_(n) { SSKEL_REQUIRE(n > 0); }

  /// Records G^r; rounds must arrive in order 1, 2, 3, ...
  void record(Round r, const Digraph& graph) {
    SSKEL_REQUIRE(graph.n() == n_);
    SSKEL_REQUIRE(r == rounds() + 1);
    std::vector<ProcSet> hos;
    hos.reserve(static_cast<std::size_t>(n_));
    for (ProcId p = 0; p < n_; ++p) hos.push_back(graph.in_neighbors(p));
    per_round_ho_.push_back(std::move(hos));
  }

  [[nodiscard]] Round rounds() const {
    return static_cast<Round>(per_round_ho_.size());
  }

  /// HO(p, r): processes p heard from in round r (1-based).
  [[nodiscard]] const ProcSet& ho(ProcId p, Round r) const {
    SSKEL_REQUIRE(r >= 1 && r <= rounds());
    SSKEL_REQUIRE(p >= 0 && p < n_);
    return per_round_ho_[static_cast<std::size_t>(r - 1)]
                        [static_cast<std::size_t>(p)];
  }

  /// D(p, r): the RbR fault-detector output = Pi \ HO(p, r).
  [[nodiscard]] ProcSet d(ProcId p, Round r) const {
    return ProcSet::full(n_) - ho(p, r);
  }

  /// PT(p, r) computed via the HO form of Eq. (7): the running
  /// intersection of heard-of sets.
  [[nodiscard]] ProcSet pt_via_ho(ProcId p, Round r) const {
    SSKEL_REQUIRE(r >= 1 && r <= rounds());
    ProcSet pt = ProcSet::full(n_);
    for (Round rr = 1; rr <= r; ++rr) pt &= ho(p, rr);
    return pt;
  }

  /// PT(p, r) computed via the fault-detector form of Eq. (7):
  /// Pi \ union of D(p, r').
  [[nodiscard]] ProcSet pt_via_d(ProcId p, Round r) const {
    SSKEL_REQUIRE(r >= 1 && r <= rounds());
    ProcSet suspected(n_);
    for (Round rr = 1; rr <= r; ++rr) suspected |= d(p, rr);
    return ProcSet::full(n_) - suspected;
  }

 private:
  ProcId n_;
  // per_round_ho_[r-1][p] = HO(p, r)
  std::vector<std::vector<ProcSet>> per_round_ho_;
};

}  // namespace sskel::oracles
