// Structure fingerprints: strong 128-bit hashes of digraph structure.
//
// The intern table (skeleton/intern.hpp) maps each distinct skeleton
// structure — node set plus out-edge rows, labels ignored — to one
// canonical entry. The bucket key is a 128-bit fingerprint computed by
// a seeded xxhash-style mix over the structure's packed bitset words,
// so hashing costs the same O(n^2/64) word scan as a structure
// compare. Fingerprint equality is *not* trusted as structure
// equality: the table always confirms a hit with a full word-level
// compare, so a collision costs one extra scan instead of a wrong
// answer.
#pragma once

#include <cstdint>

#include "util/proc_set.hpp"
#include "util/types.hpp"

namespace sskel {

class Digraph;

/// A 128-bit structure fingerprint as two independent 64-bit lanes.
struct Fingerprint128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  bool operator==(const Fingerprint128& other) const = default;
};

/// Incremental two-lane mixer (xxhash64-style primes and rotations,
/// one accumulator per lane with distinct constants). Word order
/// matters: mixing the same words in a different order yields a
/// different fingerprint, which is exactly right for adjacency rows.
class FingerprintBuilder {
 public:
  explicit FingerprintBuilder(std::uint64_t seed);

  /// Mixes one 64-bit word into both lanes.
  void mix_word(std::uint64_t w);

  /// Mixes a whole ProcSet: its packed words in ascending word order.
  /// The universe size is *not* mixed per set — callers mix n once up
  /// front, after which every set of that universe contributes a fixed
  /// number of words and the stream stays self-delimiting.
  void mix_set(const ProcSet& s);

  /// Finalizes (avalanche per lane, folded with the word count).
  /// The builder may keep mixing afterwards; finish() is const.
  [[nodiscard]] Fingerprint128 finish() const;

 private:
  std::uint64_t acc1_;
  std::uint64_t acc2_;
  std::uint64_t length_ = 0;
};

/// Fingerprint of a Digraph's structure: n, the node set, then every
/// out-row in ascending node order.
[[nodiscard]] Fingerprint128 fingerprint_structure(const Digraph& g,
                                                   std::uint64_t seed);

}  // namespace sskel
