#include "graph/fingerprint.hpp"

#include "graph/digraph.hpp"

namespace sskel {
namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

constexpr std::uint64_t rotl64(std::uint64_t x, int r) {
  return (x << r) | (x >> (64 - r));
}

constexpr std::uint64_t avalanche(std::uint64_t x) {
  x ^= x >> 33;
  x *= kPrime2;
  x ^= x >> 29;
  x *= kPrime3;
  x ^= x >> 32;
  return x;
}

}  // namespace

FingerprintBuilder::FingerprintBuilder(std::uint64_t seed)
    : acc1_(seed + kPrime1 + kPrime2),
      acc2_((seed ^ kPrime5) * kPrime3 + kPrime4) {}

void FingerprintBuilder::mix_word(std::uint64_t w) {
  acc1_ = rotl64(acc1_ + w * kPrime2, 31) * kPrime1;
  acc2_ = rotl64(acc2_ ^ (w * kPrime3), 27) * kPrime4 + kPrime5;
  ++length_;
}

void FingerprintBuilder::mix_set(const ProcSet& s) {
  // Mix only the active (index, word) pairs: density-proportional on
  // decayed skeletons and identical across the dense/tiered/sparse
  // representations. Fingerprints are cache keys, never correctness
  // (the intern table confirms every hit by full equality), so this
  // redefinition is safe across builds.
  std::uint64_t active = 0;
  s.for_each_word([this, &active](std::uint32_t w, std::uint64_t v) {
    mix_word((static_cast<std::uint64_t>(w) << 32) ^ v);
    ++active;
  });
  // Variable-length streams need explicit set boundaries: without the
  // terminator a pair could migrate between consecutive rows of a
  // structure without changing the digest.
  mix_word(kPrime5 ^ active);
}

Fingerprint128 FingerprintBuilder::finish() const {
  Fingerprint128 fp;
  fp.lo = avalanche(acc1_ ^ (length_ * kPrime5));
  fp.hi = avalanche(acc2_ + rotl64(acc1_, 17) + length_);
  return fp;
}

Fingerprint128 fingerprint_structure(const Digraph& g, std::uint64_t seed) {
  FingerprintBuilder b(seed);
  b.mix_word(static_cast<std::uint64_t>(g.n()));
  b.mix_set(g.nodes());
  for (ProcId q = 0; q < g.n(); ++q) {
    b.mix_set(g.out_neighbors(q));
  }
  return b.finish();
}

}  // namespace sskel
