#include "adversary/noise.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace sskel {

std::uint64_t bernoulli_threshold(double probability) {
  // next_double() is m * 2^-53 for m = x >> 11 < 2^53, and scaling by
  // 2^53 is exact, so next_double() < p iff m < p * 2^53; for an
  // integer m that holds iff m < ceil(p * 2^53).
  if (!(probability > 0.0)) return 0;
  if (probability >= 1.0) return std::uint64_t{1} << 53;
  return static_cast<std::uint64_t>(std::ceil(probability * 0x1.0p53));
}

void add_bernoulli_noise(Digraph& g, double probability, Rng& rng,
                         std::vector<std::uint64_t>& rows) {
  if (probability <= 0.0) return;
  SSKEL_REQUIRE(g.node_count() == g.n());
  const auto n = static_cast<std::size_t>(g.n());
  const std::size_t span = g.nodes().word_span();
  const bool draw = !(probability >= 1.0);
  const std::uint64_t threshold = bernoulli_threshold(probability);
  // The generator runs on a local copy: stores into `rows` could
  // otherwise alias its state and force it through memory per draw.
  Rng local = rng;
  rows.resize(n * span);
  std::uint64_t* row = rows.data();
  for (std::size_t q = 0; q < n; ++q, row += span) {
    const ProcSet& stable = g.out_neighbors(static_cast<ProcId>(q));
    for (std::size_t w = 0; w < span; ++w) {
      const std::size_t width = std::min<std::size_t>(64, n - w * 64);
      const std::uint64_t valid =
          width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
      std::uint64_t candidates = ~stable.word_at(w) & valid;
      if (!draw) {
        row[w] = candidates;
        continue;
      }
      std::uint64_t accepted = 0;
      for (; candidates != 0; candidates &= candidates - 1) {
        const std::uint64_t m = local.next_u64() >> 11;
        accepted |= static_cast<std::uint64_t>(m < threshold)
                    << std::countr_zero(candidates);
      }
      row[w] = accepted;
    }
  }
  rng = local;
  g.or_out_rows(rows.data());
}

}  // namespace sskel
