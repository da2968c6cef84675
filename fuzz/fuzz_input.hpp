// Minimal structure-aware reader for fuzz targets: deterministic,
// allocation-free slicing of the raw fuzz input into bounded integers.
// Runs dry gracefully — once the input is exhausted every read returns
// the range minimum, so targets never branch on uninitialized data and
// short inputs still reach deep code paths. FuzzSeed writes the bytes
// a given sequence of reads decodes to, for seed corpora.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sskel::fuzz {

class FuzzInput {
 public:
  FuzzInput(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool empty() const { return pos_ == size_; }

  [[nodiscard]] std::uint8_t u8() {
    return pos_ < size_ ? data_[pos_++] : 0;
  }

  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }

  /// Uniform-ish value in [lo, hi] consuming one byte (two for wide
  /// ranges). lo when the input is exhausted.
  [[nodiscard]] std::uint32_t in_range(std::uint32_t lo, std::uint32_t hi) {
    if (hi <= lo) return lo;
    const std::uint32_t span = hi - lo + 1;
    std::uint32_t raw = u8();
    if (span > 256) raw = raw << 8 | u8();
    return lo + raw % span;
  }

  [[nodiscard]] bool boolean() { return (u8() & 1) != 0; }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// FuzzInput's inverse: appends the bytes that make the matching
/// FuzzInput reads return chosen values, so a target can write its
/// structure-aware seeds field by field in the order it reads them.
class FuzzSeed {
 public:
  FuzzSeed& u8(std::uint8_t v) {
    bytes_.push_back(v);
    return *this;
  }

  FuzzSeed& u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
    return *this;
  }

  /// The bytes for which in_range(lo, hi) returns v (lo <= v <= hi).
  FuzzSeed& in_range(std::uint32_t lo, std::uint32_t hi, std::uint32_t v) {
    if (hi <= lo) return *this;  // the read consumes nothing
    const std::uint32_t raw = v - lo;
    if (hi - lo + 1 > 256) u8(static_cast<std::uint8_t>(raw >> 8));
    return u8(static_cast<std::uint8_t>(raw));
  }

  FuzzSeed& boolean(bool v) { return u8(v ? 1 : 0); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

}  // namespace sskel::fuzz
