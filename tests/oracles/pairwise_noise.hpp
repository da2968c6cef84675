// The pairwise noise loops of the random adversaries.
//
// RandomPsrcsSource and PartitionSource drew their per-round noise one
// ordered pair at a time: a has_edge test, an Rng::next_bool and an
// add_edge per pair. The word-parallel kernel in
// src/adversary/noise.hpp replaced both loops and must take the same
// draws and land the same edges. These are the loops verbatim, the
// reference tests/adversary/noise_test.cpp holds the kernel and both
// sources to.
#pragma once

#include <cstdint>

#include "adversary/partition.hpp"
#include "adversary/random_psrcs.hpp"
#include "graph/digraph.hpp"
#include "util/rng.hpp"

namespace sskel::oracles {

/// Every non-edge (q, p) of `g`, in ascending (q, p) order, becomes an
/// edge iff rng.next_bool(probability): PartitionSource's loop.
inline void pairwise_noise(Digraph& g, double probability, Rng& rng) {
  const ProcId n = g.n();
  for (ProcId q = 0; q < n; ++q) {
    for (ProcId p = 0; p < n; ++p) {
      if (g.has_edge(q, p)) continue;
      if (rng.next_bool(probability)) g.add_edge(q, p);
    }
  }
}

/// RandomPsrcsSource::graph_into for the source built from (seed,
/// params), whose stable skeleton is `stable`.
inline void random_psrcs_graph_into(std::uint64_t seed,
                                    const RandomPsrcsParams& params,
                                    const Digraph& stable, Round r,
                                    Digraph& out) {
  out = stable;
  if (r == params.stabilization_round) return;
  if (r > params.stabilization_round && !params.noise_after_stabilization) {
    return;
  }
  Rng rng(mix_seed(seed ^ 0x5eed5eedULL, static_cast<std::uint64_t>(r)));
  const ProcId n = params.n;
  for (ProcId q = 0; q < n; ++q) {
    for (ProcId p = 0; p < n; ++p) {
      if (q == p || out.has_edge(q, p)) continue;
      if (rng.next_bool(params.noise_probability)) out.add_edge(q, p);
    }
  }
}

/// PartitionSource::graph_into for the source built from (seed,
/// params), whose stable skeleton is `stable`.
inline void partition_graph_into(std::uint64_t seed,
                                 const PartitionParams& params,
                                 const Digraph& stable, Round r,
                                 Digraph& out) {
  out = stable;
  if (r >= params.stabilization_round ||
      params.cross_noise_probability <= 0.0) {
    return;
  }
  Rng rng(mix_seed(seed, static_cast<std::uint64_t>(r)));
  pairwise_noise(out, params.cross_noise_probability, rng);
}

}  // namespace sskel::oracles
