// Exactness tripwires for Algorithm 1's compact state: after every
// round, each production process's derived G_p (nodes, edges, labels),
// its encoded message, PT_p, estimate and decision must equal the dense
// line-by-line reference (tests/oracles/dense_kset.hpp) on the same
// graph sequence — over random Psrcs runs, partitions, the paper's
// named runs, crashes, and the network substrate. Lemma verdicts are
// compared on monitored runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "adversary/crash.hpp"
#include "adversary/eventual.hpp"
#include "adversary/figure1.hpp"
#include "adversary/impossibility.hpp"
#include "adversary/partition.hpp"
#include "adversary/random_psrcs.hpp"
#include "adversary/rotating.hpp"
#include "kset/runner.hpp"
#include "net/driver.hpp"
#include "oracles/dense_kset.hpp"
#include "rounds/simulator.hpp"
#include "util/rng.hpp"

namespace sskel {
namespace {

using oracles::DenseMessage;
using oracles::LockstepResult;

/// Runs both processes over two sources built by `make_source` (so
/// they see the same graphs) for `rounds` rounds.
template <typename MakeSource>
LockstepResult lockstep_sim(const MakeSource& make_source, Round rounds,
                            const KSetRunConfig& config = {},
                            bool monitor = false) {
  auto compact_source = make_source();
  auto dense_source = make_source();
  const ProcId n = compact_source->n();
  Simulator<SkeletonMessage> compact(*compact_source,
                                     make_kset_processes(n, config));
  Simulator<DenseMessage> dense(*dense_source,
                                oracles::make_dense_processes(n, config));
  return oracles::run_lockstep(compact, dense, rounds, monitor);
}

/// Lemma 11's bound from stabilization (r_ST + 2n - 1, plus one for
/// the strict guard) and a few post-decision rounds.
Round rounds_for(ProcId n, Round stabilization) {
  return stabilization + 2 * n + 8;
}

TEST(CompactKSetEquivalence, RandomPsrcsSweep) {
  std::int64_t process_rounds = 0;
  for (const ProcId n : {5, 8, 12, 20, 32, 48, 64}) {
    for (const Round stab : {1, 4, 12}) {
      const int seeds = n <= 20 ? 3 : 1;
      for (int s = 0; s < seeds; ++s) {
        const std::uint64_t seed = mix_seed(
            0xC0DE, static_cast<std::uint64_t>(n * 100 + stab * 10 + s));
        RandomPsrcsParams params;
        params.n = n;
        params.k = n < 8 ? 2 : 4;
        params.root_components = params.k;
        params.max_core_size = n < 8 ? 2 : 4;
        params.stabilization_round = stab;
        params.noise_probability = 0.25;
        const LockstepResult r = lockstep_sim(
            [&] { return std::make_unique<RandomPsrcsSource>(seed, params); },
            rounds_for(n, stab));
        EXPECT_EQ(r.mismatch, "") << "n=" << n << " stab=" << stab
                                  << " seed=" << seed;
        process_rounds += r.process_rounds;
      }
    }
  }
  EXPECT_GT(process_rounds, 50000);
}

TEST(CompactKSetEquivalence, PartitionsWithCrossNoise) {
  for (const std::uint64_t seed : {0xB10C1ull, 0xB10C2ull, 0xB10C3ull}) {
    for (const int blocks : {2, 3, 5}) {
      PartitionParams params;
      params.blocks = even_blocks(30, blocks);
      params.cross_noise_probability = 0.5;
      params.stabilization_round = 9;
      const LockstepResult r = lockstep_sim(
          [&] { return std::make_unique<PartitionSource>(seed, params); },
          rounds_for(30, 9));
      EXPECT_EQ(r.mismatch, "") << "seed=" << seed << " blocks=" << blocks;
    }
  }
}

TEST(CompactKSetEquivalence, PaperRunsAndCrashes) {
  struct Case {
    std::string name;
    std::function<std::unique_ptr<GraphSource>()> make;
    ProcId n;
  };
  const std::vector<Case> cases = {
      {"figure1", [] { return make_figure1_source(); }, 6},
      {"theorem2", [] { return make_impossibility_source(9, 3); }, 9},
      {"rotating_star", [] { return make_rotating_star_source(7); }, 7},
      {"rotating_star_hold3",
       [] { return make_rotating_star_source(10, 3, 4); }, 10},
      {"eventual", [] { return make_eventual_source(8, 12); }, 8},
      {"crash", [] { return make_random_crash_source(77, 12, 3, 9); }, 12},
      {"crash_many", [] { return make_random_crash_source(78, 16, 7, 5); }, 16},
  };
  for (const Case& c : cases) {
    const LockstepResult r = lockstep_sim(c.make, rounds_for(c.n, 16));
    EXPECT_EQ(r.mismatch, "") << c.name;
    EXPECT_EQ(r.rounds, rounds_for(c.n, 16)) << c.name;
  }
}

TEST(CompactKSetEquivalence, AtRoundNGuard) {
  KSetRunConfig config;
  config.guard = DecisionGuard::kAtRoundN;
  RandomPsrcsParams params;
  params.n = 16;
  params.k = 3;
  params.root_components = 3;
  params.stabilization_round = 1;
  const LockstepResult r = lockstep_sim(
      [&] { return std::make_unique<RandomPsrcsSource>(0xA7, params); },
      rounds_for(16, 1), config);
  EXPECT_EQ(r.mismatch, "");
}

TEST(CompactKSetEquivalence, LemmaVerdictsBitEqual) {
  RandomPsrcsParams params;
  params.n = 14;
  params.k = 3;
  params.root_components = 3;
  params.stabilization_round = 5;
  params.noise_probability = 0.3;
  for (const std::uint64_t seed : {0x1E7A1ull, 0x1E7A2ull}) {
    const LockstepResult r = lockstep_sim(
        [&] { return std::make_unique<RandomPsrcsSource>(seed, params); },
        rounds_for(14, 5), {}, /*monitor=*/true);
    EXPECT_EQ(r.mismatch, "");
    EXPECT_EQ(r.compact_violations, r.dense_violations);
    EXPECT_TRUE(r.compact_violations.empty());
  }
  const LockstepResult fig = lockstep_sim(
      [] { return make_figure1_source(); }, rounds_for(6, 16), {}, true);
  EXPECT_EQ(fig.mismatch, "");
  EXPECT_EQ(fig.compact_violations, fig.dense_violations);
}

TEST(CompactKSetEquivalence, NetDriverFlakyLossySkewedLinks) {
  const ProcId n = 14;
  RandomPsrcsParams params;
  params.n = n;
  params.k = 3;
  params.root_components = 3;
  const Digraph stable = RandomPsrcsSource(0x5EED, params).stable_skeleton();
  for (const std::uint64_t seed : {11ull, 12ull, 13ull, 14ull}) {
    LinkMatrix links =
        LinkMatrix::all_flaky(n, 0.2 * static_cast<double>(seed % 4));
    Rng rng(seed);
    for (ProcId q = 0; q < n; ++q) {
      for (ProcId p = 0; p < n; ++p) {
        if (q != p && rng.next_below(5) == 0) links.set(q, p, LinkSpec{});
      }
    }
    links.upgrade_to_timely(stable, 100, 700);
    NetConfig net;
    net.round_duration = 1000;
    net.seed = seed;
    for (ProcId p = 0; p < n; ++p) {
      net.skews.push_back(static_cast<SimTime>(rng.next_below(600)));
    }
    KSetRunConfig config;
    NetRoundDriver<SkeletonMessage> compact(net, links,
                                            make_kset_processes(n, config));
    NetRoundDriver<DenseMessage> dense(
        net, links, oracles::make_dense_processes(n, config));
    const LockstepResult r =
        oracles::run_lockstep(compact, dense, rounds_for(n, 8));
    EXPECT_EQ(r.mismatch, "") << "seed=" << seed;
    EXPECT_GT(compact.late_messages() + compact.lost_messages(), 0)
        << "seed=" << seed;
  }
}

TEST(CompactKSetEquivalence, MessagesReencodeIdenticallyAtRunEnd) {
  // A message references its nodes' t(·, q) tables, which keep
  // changing after it was sent; the labels read through min(λ, t) must
  // not. Encode every message at send time, re-encode the stored copy
  // once the run is over.
  RandomPsrcsParams params;
  params.n = 12;
  params.k = 3;
  params.root_components = 3;
  params.stabilization_round = 6;
  params.noise_probability = 0.35;
  RandomPsrcsSource source(0xE0C0DE, params);
  Simulator<SkeletonMessage> sim(source, make_kset_processes(12, {}));
  std::vector<SkeletonMessage> sent;
  std::vector<std::vector<std::uint8_t>> at_send;
  for (Round r = 1; r <= 60; ++r) {
    for (ProcId p = 0; p < 12; ++p) {
      sent.push_back(sim.process(p).send(r));
      at_send.emplace_back();
      encode_message(sent.back(), at_send.back());
    }
    sim.step();
  }
  for (std::size_t i = 0; i < sent.size(); ++i) {
    std::vector<std::uint8_t> again;
    encode_message(sent[i], again);
    EXPECT_EQ(again, at_send[i]) << "message " << i;
    EXPECT_EQ(encoded_size(sent[i]), static_cast<std::int64_t>(again.size()));
  }
}

}  // namespace
}  // namespace sskel
