// Word kernels for bitset algebra.
//
// Every hot loop of the library bottoms out in straight-line algebra
// over packed 64-bit words: skeleton intersection, removal-diff
// materialization, masked BFS folds, subset tests. Each kernel is one
// plain loop, inline so a call on a single word (every set up to
// n = 64, nearly all of the traffic) costs no call at all, and free of
// branches inside the loop so the compiler vectorizes the long spans
// (1024 words per row at n = 65,536) for the target it builds for.
//
// Kernels are deliberately representation-free: they see raw word
// spans, not ProcSets. The tiered ProcSet calls them on its dense
// payload; sparse blocks go through per-word merges instead. All
// spans are `nw` words long.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sskel::wk {

/// dst &= src; returns the OR of all removed bits (nonzero iff the
/// AND cleared anything).
inline std::uint64_t and_changed(std::uint64_t* dst, const std::uint64_t* src,
                                 std::size_t nw) {
  std::uint64_t removed = 0;
  for (std::size_t i = 0; i < nw; ++i) {
    removed |= dst[i] & ~src[i];
    dst[i] &= src[i];
  }
  return removed;
}

/// dst &= src; diff[i] receives the bits removed from dst[i]; returns
/// the OR of all removed bits.
inline std::uint64_t and_diff(std::uint64_t* dst, const std::uint64_t* src,
                              std::uint64_t* diff, std::size_t nw) {
  std::uint64_t removed = 0;
  for (std::size_t i = 0; i < nw; ++i) {
    const std::uint64_t gone = dst[i] & ~src[i];
    diff[i] = gone;
    removed |= gone;
    dst[i] &= src[i];
  }
  return removed;
}

/// dst |= src.
inline void or_inplace(std::uint64_t* dst, const std::uint64_t* src,
                       std::size_t nw) {
  for (std::size_t i = 0; i < nw; ++i) dst[i] |= src[i];
}

/// dst |= a & b — the fused masked-BFS fold (frontier row ANDed with
/// the member mask, ORed into the visited accumulator, one pass).
inline void or_and(std::uint64_t* dst, const std::uint64_t* a,
                   const std::uint64_t* b, std::size_t nw) {
  for (std::size_t i = 0; i < nw; ++i) dst[i] |= a[i] & b[i];
}

/// dst &= ~src.
inline void andnot_inplace(std::uint64_t* dst, const std::uint64_t* src,
                           std::size_t nw) {
  for (std::size_t i = 0; i < nw; ++i) dst[i] &= ~src[i];
}

/// (a & ~b) == 0 over the span. Reads the whole span: an OR reduction
/// without an early exit is what lets the loop vectorize.
[[nodiscard]] inline bool subset(const std::uint64_t* a,
                                 const std::uint64_t* b, std::size_t nw) {
  std::uint64_t outside = 0;
  for (std::size_t i = 0; i < nw; ++i) outside |= a[i] & ~b[i];
  return outside == 0;
}

/// (a & b) != 0 anywhere in the span (same whole-span reduction as
/// subset).
[[nodiscard]] inline bool intersects(const std::uint64_t* a,
                                     const std::uint64_t* b, std::size_t nw) {
  std::uint64_t common = 0;
  for (std::size_t i = 0; i < nw; ++i) common |= a[i] & b[i];
  return common != 0;
}

/// Total popcount of w[0..nw).
[[nodiscard]] std::int64_t popcount(const std::uint64_t* w, std::size_t nw);

/// summary[s] bit j = (words[s*64 + j] != 0), for ceil(nw/64) summary
/// words; trailing summary bits beyond nw are zero.
void build_summary(const std::uint64_t* words, std::size_t nw,
                   std::uint64_t* summary);

}  // namespace sskel::wk
