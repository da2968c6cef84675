// The word kernels against a naive per-word loop written here,
// independent of the kernels: bit-identical results and identical
// change verdicts on the same inputs, over empty, single-word, ragged
// and bulk spans.
#include "util/word_kernels.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace sskel {
namespace {

using Words = std::vector<std::uint64_t>;

Words random_words(Rng& rng, std::size_t nw, int mode) {
  Words w(nw);
  for (std::uint64_t& v : w) {
    switch (mode) {
      case 0: v = rng.next_u64(); break;
      case 1: v = 0; break;
      case 2: v = ~std::uint64_t{0}; break;
      default: v = rng.next_bool(0.25) ? rng.next_u64() : 0; break;
    }
  }
  return w;
}

/// Span lengths spanning the interesting shapes: empty, one word,
/// ragged lengths around the widths a vectorized loop strides by, and
/// a bulk span (1024 words = one n = 65,536 row).
const std::size_t kSpans[] = {0, 1, 3, 4, 7, 8, 9, 31, 64, 129, 1024};

TEST(WordKernelsTest, KernelsMatchNaiveReference) {
  Rng rng(0x5149D);
  for (const std::size_t nw : kSpans) {
    for (int mode = 0; mode < 4; ++mode) {
      const Words a0 = random_words(rng, nw, mode);
      const Words b = random_words(rng, nw, (mode + 1) % 4);
      const Words c = random_words(rng, nw, 3);

      // and_changed / and_diff against one reference.
      Words ref = a0;
      Words ref_diff(nw, 0);
      std::uint64_t ref_removed = 0;
      for (std::size_t i = 0; i < nw; ++i) {
        ref_diff[i] = ref[i] & ~b[i];
        ref_removed |= ref_diff[i];
        ref[i] &= b[i];
      }
      Words d1 = a0;
      const std::uint64_t ch = wk::and_changed(d1.data(), b.data(), nw);
      EXPECT_EQ(d1, ref) << "nw=" << nw;
      EXPECT_EQ(ch != 0, ref_removed != 0);

      Words d2 = a0;
      Words diff(nw, ~std::uint64_t{0});  // must be fully overwritten
      const std::uint64_t rm =
          wk::and_diff(d2.data(), b.data(), diff.data(), nw);
      EXPECT_EQ(d2, ref);
      EXPECT_EQ(diff, ref_diff);
      EXPECT_EQ(rm != 0, ref_removed != 0);

      // or_inplace / or_and / andnot_inplace.
      Words r_or = a0;
      for (std::size_t i = 0; i < nw; ++i) r_or[i] |= b[i];
      Words d3 = a0;
      wk::or_inplace(d3.data(), b.data(), nw);
      EXPECT_EQ(d3, r_or);

      Words r_oa = a0;
      for (std::size_t i = 0; i < nw; ++i) r_oa[i] |= b[i] & c[i];
      Words d4 = a0;
      wk::or_and(d4.data(), b.data(), c.data(), nw);
      EXPECT_EQ(d4, r_oa);

      Words r_an = a0;
      for (std::size_t i = 0; i < nw; ++i) r_an[i] &= ~b[i];
      Words d5 = a0;
      wk::andnot_inplace(d5.data(), b.data(), nw);
      EXPECT_EQ(d5, r_an);

      // subset / intersects predicates.
      bool ref_subset = true;
      bool ref_intersects = false;
      for (std::size_t i = 0; i < nw; ++i) {
        if ((a0[i] & ~b[i]) != 0) ref_subset = false;
        if ((a0[i] & b[i]) != 0) ref_intersects = true;
      }
      EXPECT_EQ(wk::subset(a0.data(), b.data(), nw), ref_subset);
      EXPECT_EQ(wk::intersects(a0.data(), b.data(), nw), ref_intersects);
    }
  }
}

TEST(WordKernelsTest, PredicatesShortCircuitCorrectlyOnLateDifferences) {
  // A difference only in the last word of a long span: the whole-span
  // reductions must still see it.
  Words a(129, 0);
  Words b(129, ~std::uint64_t{0});
  EXPECT_TRUE(wk::subset(a.data(), b.data(), a.size()));
  EXPECT_FALSE(wk::intersects(a.data(), b.data(), a.size()));
  a.back() = 1;
  b.back() = 0;
  EXPECT_FALSE(wk::subset(a.data(), b.data(), a.size()));
  b.back() = 1;
  EXPECT_TRUE(wk::intersects(a.data(), b.data(), a.size()));
}

TEST(WordKernelsTest, PopcountAndSummary) {
  Rng rng(0x909C07);
  for (const std::size_t nw : kSpans) {
    const Words w = random_words(rng, nw, 3);
    std::int64_t ref = 0;
    for (const std::uint64_t v : w) {
      ref += static_cast<std::int64_t>(std::popcount(v));
    }
    EXPECT_EQ(wk::popcount(w.data(), nw), ref);

    const std::size_t sw = (nw + 63) / 64;
    Words summary(sw == 0 ? 1 : sw, ~std::uint64_t{0});
    wk::build_summary(w.data(), nw, summary.data());
    for (std::size_t i = 0; i < nw; ++i) {
      const bool bit = (summary[i / 64] >> (i % 64)) & 1u;
      EXPECT_EQ(bit, w[i] != 0) << "word " << i;
    }
    // Trailing summary bits beyond nw must be zero.
    for (std::size_t i = nw; i < sw * 64; ++i) {
      EXPECT_EQ((summary[i / 64] >> (i % 64)) & 1u, 0u);
    }
  }
}

}  // namespace
}  // namespace sskel
