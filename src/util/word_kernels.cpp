#include "util/word_kernels.hpp"

#include <bit>

namespace sskel::wk {

std::int64_t popcount(const std::uint64_t* w, std::size_t nw) {
  std::int64_t c = 0;
  std::size_t i = 0;
  for (; i + 4 <= nw; i += 4) {
    c += std::popcount(w[i]) + std::popcount(w[i + 1]) +
         std::popcount(w[i + 2]) + std::popcount(w[i + 3]);
  }
  for (; i < nw; ++i) c += std::popcount(w[i]);
  return c;
}

void build_summary(const std::uint64_t* words, std::size_t nw,
                   std::uint64_t* summary) {
  const std::size_t ns = (nw + 63) / 64;
  for (std::size_t s = 0; s < ns; ++s) summary[s] = 0;
  for (std::size_t i = 0; i < nw; ++i) {
    if (words[i] != 0) summary[i / 64] |= std::uint64_t{1} << (i % 64);
  }
}

}  // namespace sskel::wk
