// Randomized dense-vs-tiered equivalence for ProcSet.
//
// The tiered representation (summary words, sparse block lists,
// automatic density transitions) must be invisible through the public
// API. These tests lower the tier threshold so small universes take
// the tiered paths, then drive a *twin* of every set through the same
// operation sequence pinned to the seed's flat dense representation
// (ScopedTierPolicy kDenseOnly) and demand logical equality — members,
// counts, iteration order, hashes, word views — after every step.
// Seeds are fixed, so failures replay exactly.
#include "util/proc_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace sskel {
namespace {

/// Restores the process-wide tier threshold on scope exit (the suite
/// lowers it to 1 word so every multi-word universe is tiered).
class ScopedTierThreshold {
 public:
  explicit ScopedTierThreshold(std::size_t words)
      : previous_(ProcSet::tier_threshold_words()) {
    ProcSet::set_tier_threshold_words(words);
  }
  ScopedTierThreshold(const ScopedTierThreshold&) = delete;
  ScopedTierThreshold& operator=(const ScopedTierThreshold&) = delete;
  ~ScopedTierThreshold() { ProcSet::set_tier_threshold_words(previous_); }

 private:
  std::size_t previous_;
};

/// A random set of `n` ids where each block of 64 is populated with
/// probability `block_p` and each bit of a populated block with
/// `bit_p` — block-structured densities, matching how decayed
/// skeletons actually look.
ProcSet random_set(Rng& rng, ProcId n, double block_p, double bit_p) {
  ProcSet s(n);
  for (ProcId base = 0; base < n; base += 64) {
    if (!rng.next_bool(block_p)) continue;
    for (ProcId p = base; p < n && p < base + 64; ++p) {
      if (rng.next_bool(bit_p)) s.insert(p);
    }
  }
  return s;
}

/// Full logical-equality audit between the tiered set and its dense
/// twin: every observer the library relies on must agree.
void expect_equivalent(const ProcSet& tiered, const ProcSet& dense) {
  ASSERT_EQ(tiered.universe(), dense.universe());
  EXPECT_TRUE(tiered == dense);
  EXPECT_EQ(tiered.count(), dense.count());
  EXPECT_EQ(tiered.empty(), dense.empty());
  EXPECT_EQ(tiered.first(), dense.first());
  EXPECT_EQ(tiered.hash(), dense.hash());
  EXPECT_EQ(tiered.to_vector(), dense.to_vector());
  // Word views must agree block for block (for_each_word only visits
  // nonzero words; collect and compare).
  std::vector<std::pair<std::uint32_t, std::uint64_t>> tw;
  std::vector<std::pair<std::uint32_t, std::uint64_t>> dw;
  tiered.for_each_word([&tw](std::uint32_t w, std::uint64_t v) {
    tw.emplace_back(w, v);
  });
  dense.for_each_word([&dw](std::uint32_t w, std::uint64_t v) {
    dw.emplace_back(w, v);
  });
  EXPECT_EQ(tw, dw);
  EXPECT_EQ(tiered.active_words(), dense.active_words());
  for (std::size_t w = 0; w < tiered.word_span(); ++w) {
    ASSERT_EQ(tiered.word_at(w), dense.word_at(w)) << "word " << w;
  }
}

/// One tiered/dense pair driven through identical operations, each
/// side under its own policy.
struct Twin {
  ProcSet tiered;
  ProcSet dense;

  explicit Twin(ProcId n) : tiered(make_tiered(n)), dense(make_dense(n)) {}

  static ProcSet make_tiered(ProcId n) { return ProcSet(n); }
  static ProcSet make_dense(ProcId n) {
    ScopedTierPolicy scope(ProcSet::TierPolicy::kDenseOnly);
    return ProcSet(n);
  }

  /// Applies `fn(ProcSet&)` to both sides under the matching policy.
  template <typename Fn>
  void apply(Fn&& fn) {
    fn(tiered);
    {
      ScopedTierPolicy scope(ProcSet::TierPolicy::kDenseOnly);
      fn(dense);
    }
    expect_equivalent(tiered, dense);
  }
};

TEST(ProcSetTierTest, RandomOperationSequences) {
  ScopedTierThreshold threshold(1);
  for (const ProcId n : {64, 200, 1024}) {
    Rng rng(mix_seed(0x71E2ED, static_cast<std::uint64_t>(n)));
    std::vector<Twin> twins;
    for (int i = 0; i < 6; ++i) twins.emplace_back(n);

    // Operand pool: block-structured random sets mirrored into both
    // policies (operands, like receivers, live in both worlds).
    std::vector<Twin> operands;
    for (int i = 0; i < 8; ++i) {
      const double block_p = 0.1 + 0.2 * static_cast<double>(i % 5);
      ProcSet s = random_set(rng, n, block_p, 0.5);
      Twin t(n);
      for (ProcId p : s) {
        t.tiered.insert(p);
        {
          ScopedTierPolicy scope(ProcSet::TierPolicy::kDenseOnly);
          t.dense.insert(p);
        }
      }
      expect_equivalent(t.tiered, t.dense);
      operands.push_back(std::move(t));
    }

    int saw_sparse = 0;
    int saw_dense_rep = 0;
    for (int step = 0; step < 400; ++step) {
      Twin& t = twins[rng.pick_index(twins.size())];
      const Twin& o = operands[rng.pick_index(operands.size())];
      const Twin& m = operands[rng.pick_index(operands.size())];
      switch (rng.next_below(10)) {
        case 0: {
          const auto p = static_cast<ProcId>(rng.next_below(
              static_cast<std::uint64_t>(n)));
          t.apply([p](ProcSet& s) { s.insert(p); });
          break;
        }
        case 1: {
          const auto p = static_cast<ProcId>(rng.next_below(
              static_cast<std::uint64_t>(n)));
          t.apply([p](ProcSet& s) { s.erase(p); });
          break;
        }
        case 2:
          t.apply([&](ProcSet& s) {
            s &= (&s == &t.tiered ? o.tiered : o.dense);
          });
          break;
        case 3:
          t.apply([&](ProcSet& s) {
            s |= (&s == &t.tiered ? o.tiered : o.dense);
          });
          break;
        case 4:
          t.apply([&](ProcSet& s) {
            s -= (&s == &t.tiered ? o.tiered : o.dense);
          });
          break;
        case 5: {
          // intersect_changed: verdicts must match too.
          const bool tc = t.tiered.intersect_changed(o.tiered);
          bool dc = false;
          {
            ScopedTierPolicy scope(ProcSet::TierPolicy::kDenseOnly);
            dc = t.dense.intersect_changed(o.dense);
          }
          EXPECT_EQ(tc, dc);
          expect_equivalent(t.tiered, t.dense);
          break;
        }
        case 6: {
          // intersect_diff: removed sets must be logically equal.
          ProcSet tr(n);
          const bool tc = t.tiered.intersect_diff(o.tiered, tr);
          bool dc = false;
          ProcSet dr = Twin::make_dense(n);
          {
            ScopedTierPolicy scope(ProcSet::TierPolicy::kDenseOnly);
            dc = t.dense.intersect_diff(o.dense, dr);
          }
          EXPECT_EQ(tc, dc);
          expect_equivalent(tr, dr);
          expect_equivalent(t.tiered, t.dense);
          break;
        }
        case 7:
          // Fused masked fold against two operands.
          t.tiered.or_and(o.tiered, m.tiered);
          {
            ScopedTierPolicy scope(ProcSet::TierPolicy::kDenseOnly);
            t.dense.or_and(o.dense, m.dense);
          }
          expect_equivalent(t.tiered, t.dense);
          break;
        case 8:
          t.apply([](ProcSet& s) { s.clear(); });
          break;
        case 9: {
          // Relational observers across representations.
          EXPECT_EQ(t.tiered.is_subset_of(o.tiered),
                    t.dense.is_subset_of(o.dense));
          EXPECT_EQ(t.tiered.intersects(o.tiered),
                    t.dense.intersects(o.dense));
          EXPECT_EQ(t.tiered == o.tiered, t.dense == o.dense);
          break;
        }
        default:
          break;
      }
      if (t.tiered.is_sparse()) {
        ++saw_sparse;
      } else {
        ++saw_dense_rep;
      }
      // next_after must agree from arbitrary cursors, including -1.
      const auto cursor = static_cast<ProcId>(
          rng.next_in(-1, static_cast<std::int64_t>(n) - 1));
      EXPECT_EQ(t.tiered.next_after(cursor), t.dense.next_after(cursor));
    }
    // The walk must actually exercise both tiered representations —
    // otherwise the suite is vacuous. Deterministic seeds make this a
    // hard assertion, not a flake.
    EXPECT_GT(saw_sparse, 0) << "n=" << n;
    EXPECT_GT(saw_dense_rep, 0) << "n=" << n;
  }
}

TEST(ProcSetTierTest, DecayTransitionSparsifiesAndStaysEqual) {
  ScopedTierThreshold threshold(1);
  const ProcId n = 1024;
  Rng rng(0xDECA1);
  Twin t(n);
  // Grow to full (dense under kAuto) ...
  t.apply([n](ProcSet& s) { s |= ProcSet::full(n); });
  EXPECT_FALSE(t.tiered.is_sparse());
  // ... then decay through repeated intersections with ever-sparser
  // masks, crossing the sparsify threshold on the way down.
  for (int round = 0; round < 12; ++round) {
    const double keep = 1.0 / static_cast<double>(1 << (round / 2));
    ProcSet mask = random_set(rng, n, keep, 0.7);
    ProcSet dense_mask = Twin::make_dense(n);
    for (ProcId p : mask) {
      ScopedTierPolicy scope(ProcSet::TierPolicy::kDenseOnly);
      dense_mask.insert(p);
    }
    const bool tc = t.tiered.intersect_changed(mask);
    bool dc = false;
    {
      ScopedTierPolicy scope(ProcSet::TierPolicy::kDenseOnly);
      dc = t.dense.intersect_changed(dense_mask);
    }
    EXPECT_EQ(tc, dc);
    expect_equivalent(t.tiered, t.dense);
  }
  EXPECT_TRUE(t.tiered.is_sparse());
  EXPECT_FALSE(t.dense.is_sparse());  // policy-pinned twin never converts
  // Regrowth past the densify threshold converts back.
  t.apply([n](ProcSet& s) { s |= ProcSet::full(n); });
  EXPECT_FALSE(t.tiered.is_sparse());
}

TEST(ProcSetTierTest, MixedRepresentationOperands) {
  ScopedTierThreshold threshold(1);
  const ProcId n = 512;
  // A sparse receiver against a dense operand and vice versa: the
  // mixed-epoch paths (word_at fallbacks) must match the pinned twin.
  ProcSet sparse_side(n);
  sparse_side.insert(3);
  sparse_side.insert(400);
  ASSERT_TRUE(sparse_side.is_sparse());
  ProcSet dense_side = ProcSet::full(n);
  ASSERT_FALSE(dense_side.is_sparse());

  ProcSet a = sparse_side;
  a &= dense_side;
  EXPECT_TRUE(a == sparse_side);

  ProcSet b = dense_side;
  b &= sparse_side;
  EXPECT_TRUE(b == sparse_side);
  EXPECT_EQ(b.count(), 2);

  ProcSet c = dense_side;
  c -= sparse_side;
  EXPECT_EQ(c.count(), n - 2);
  EXPECT_FALSE(c.contains(3));
  EXPECT_FALSE(c.contains(400));

  // Equality and hash are representation-independent.
  EXPECT_TRUE(b == a);
  EXPECT_EQ(b.hash(), a.hash());
}

TEST(ProcSetTierTest, OrWordAtMatchesPerBitInsertion) {
  // or_word_at is the bulk write the graph layer leans on
  // (Digraph::or_in_rows); it must agree with bit-at-a-time insert
  // in every representation, including the sparse form and the
  // densify-on-growth transition.
  ScopedTierThreshold threshold(1);
  for (const ProcId n : {64, 200, 1024}) {
    Rng rng(mix_seed(0x02D5E7, static_cast<std::uint64_t>(n)));
    Twin t(n);
    const std::size_t span = (static_cast<std::size_t>(n) + 63) / 64;
    for (int step = 0; step < 64; ++step) {
      const std::size_t w = rng.pick_index(span);
      // Mask the final partial word so the write stays in-universe.
      const ProcId base = static_cast<ProcId>(64 * w);
      const ProcId width = std::min<ProcId>(64, n - base);
      const std::uint64_t mask = width == 64
                                     ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << width) - 1;
      const std::uint64_t v = rng.next_u64() & mask;
      t.tiered.or_word_at(w, v);
      {
        ScopedTierPolicy scope(ProcSet::TierPolicy::kDenseOnly);
        for (ProcId b = 0; b < width; ++b) {
          if ((v >> b) & 1U) t.dense.insert(base + b);
        }
      }
      expect_equivalent(t.tiered, t.dense);
    }
  }
}

TEST(ProcSetTierTest, OrWordAtZeroIsANoOpInAnyForm) {
  ScopedTierThreshold threshold(1);
  const ProcId n = 512;
  ProcSet sparse(n);
  sparse.insert(70);
  ASSERT_TRUE(sparse.is_sparse());
  sparse.or_word_at(3, 0);
  EXPECT_TRUE(sparse.is_sparse());
  EXPECT_EQ(sparse.count(), 1);

  ProcSet dense = ProcSet::full(n);
  dense.or_word_at(0, 0);
  EXPECT_EQ(dense.count(), n);
}

TEST(ProcSetTierTest, ArenaRecyclesRetiredDensePayloads) {
  // The word arena parks a dense payload when its set dies and serves
  // the next same-sized materialization from the parked buffer — the
  // mechanism that keeps repeated run construction allocation-free.
  ScopedTierThreshold threshold(1);
  const ProcId n = 8192;
  // Start from a clean thread arena: earlier tests may have parked a
  // same-sized buffer, which would satisfy the first acquisition.
  ProcSet::release_thread_arena();
  const std::int64_t reuses_before = ProcSet::arena_reuses();
  const std::int64_t parked_before = ProcSet::arena_bytes();
  {
    const ProcSet s = ProcSet::full(n);  // dense payload, 128 words
    ASSERT_FALSE(s.is_sparse());
  }
  // Destruction parked the payload instead of freeing it.
  EXPECT_GE(ProcSet::arena_bytes() - parked_before, 1024);
  {
    // A sparse set growing past the densify threshold materializes
    // its payload through the arena — from the parked buffer, not the
    // heap.
    ProcSet s(n);
    ASSERT_TRUE(s.is_sparse());
    for (ProcId p = 0; p < n && s.is_sparse(); p += 64) s.insert(p);
    ASSERT_FALSE(s.is_sparse());
    EXPECT_EQ(ProcSet::arena_reuses(), reuses_before + 1);
    EXPECT_EQ(ProcSet::arena_bytes(), parked_before);
  }
  // ... and parks it again on destruction; release drops it for real.
  EXPECT_GE(ProcSet::arena_bytes() - parked_before, 1024);
  ProcSet::release_thread_arena();
  EXPECT_LE(ProcSet::arena_bytes(), parked_before);
}

TEST(ProcSetTierTest, ClearReleasesTieredPayload) {
  ScopedTierThreshold threshold(1);
  const ProcId n = 4096;
  const std::int64_t before = ProcSet::live_bytes();
  ProcSet s = ProcSet::full(n);
  EXPECT_GE(ProcSet::live_bytes() - before, 512);  // 64 payload words
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.is_sparse());
  // The dead row costs (almost) nothing afterwards: the payload is
  // gone, only the sparse headers remain.
  EXPECT_LT(ProcSet::live_bytes() - before, 128);
}

TEST(ProcSetTierTest, FillEqualsFullInEveryForm) {
  // fill() must leave exactly what assigning full() leaves, from an
  // empty sparse set, a sparse set with members and a dense one, and
  // keep a small set's storage.
  ScopedTierThreshold threshold(1);
  for (const ProcId n : {1, 63, 64, 200, 1024}) {
    ProcSet sparse_members(n);
    sparse_members.insert(n / 2);
    ProcSet dense = ProcSet::full(n);
    dense.erase(0);
    for (ProcSet s : {ProcSet(n), sparse_members, dense}) {
      s.fill();
      const ProcSet full = ProcSet::full(n);
      EXPECT_EQ(s, full) << "n=" << n;
      EXPECT_EQ(s.is_sparse(), full.is_sparse()) << "n=" << n;
      EXPECT_EQ(s.count(), n) << "n=" << n;
      EXPECT_EQ(s.next_after(n - 2), n - 1) << "n=" << n;
    }
  }
  ScopedTierThreshold dense_only(1000);
  ProcSet small(100);
  small.insert(3);
  const std::int64_t before = ProcSet::live_bytes();
  small.fill();
  EXPECT_EQ(ProcSet::live_bytes(), before);
  EXPECT_EQ(small, ProcSet::full(100));
}

TEST(ProcSetTierTest, PeakBytesTracksHighWaterMark) {
  ScopedTierThreshold threshold(1);
  const ProcId n = 8192;
  ProcSet::reset_peak_bytes();
  const std::int64_t base = ProcSet::peak_bytes();
  {
    ProcSet s = ProcSet::full(n);
    EXPECT_GE(ProcSet::peak_bytes() - base, 1024);
  }
  // Destruction lowers live but never the peak.
  const std::int64_t after = ProcSet::peak_bytes();
  EXPECT_GE(after - base, 1024);
  ProcSet::reset_peak_bytes();
  EXPECT_LE(ProcSet::peak_bytes(), ProcSet::live_bytes());
}

TEST(ProcSet, IntersectionCountMatchesMaterialized) {
  // Operands in every form: flat dense (built under kDenseOnly),
  // summarized dense and sparse (kAuto), paired across policies for
  // the mixed cases, and counted under both policies.
  ScopedTierThreshold threshold(1);
  const ProcSet::TierPolicy policies[] = {ProcSet::TierPolicy::kAuto,
                                          ProcSet::TierPolicy::kDenseOnly};
  for (const ProcId n : {64, 200, 1024, 4096}) {
    Rng rng(mix_seed(0xC0C0, static_cast<std::uint64_t>(n)));
    std::vector<ProcSet> sets;
    int sparse = 0;
    for (const ProcSet::TierPolicy policy : policies) {
      ScopedTierPolicy scope(policy);
      sets.emplace_back(n);
      sets.push_back(ProcSet::full(n));
      for (int i = 0; i < 10; ++i) {
        ProcSet s = random_set(rng, n, 0.05 + 0.1 * static_cast<double>(i),
                               i % 2 == 0 ? 0.1 : 0.7);
        s.compact();
        sparse += s.is_sparse() && !s.empty() ? 1 : 0;
        sets.push_back(std::move(s));
      }
    }
    if (n >= 1024) {
      EXPECT_GT(sparse, 0) << "n=" << n;
    }
    for (const ProcSet::TierPolicy policy : policies) {
      ScopedTierPolicy scope(policy);
      for (std::size_t i = 0; i < sets.size(); ++i) {
        for (std::size_t j = 0; j < sets.size(); ++j) {
          ASSERT_EQ(sets[i].intersection_count(sets[j]),
                    (sets[i] & sets[j]).count())
              << "n=" << n << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sskel
