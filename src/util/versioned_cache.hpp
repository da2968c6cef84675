// VersionedCache: memoization keyed on a monotonically increasing
// version stamp.
//
// The skeleton G∩r shrinks monotonically and stabilizes at r_ST
// (Lemma 1), so every derived quantity — SCCs, root components,
// predicate verdicts, lemma certificates — is a pure function of the
// skeleton's version. Consumers hold one VersionedCache per derived
// value and pass the producer's current version on every query: the
// stored value is returned untouched while the version matches and
// recomputed exactly once per version bump. This is what turns the
// infinite post-stabilization tail of a run into cache hits.
//
// Single-threaded by design (one cache per tracker/monitor instance;
// trials never share them across threads).
#pragma once

#include <cstdint>
#include <utility>

namespace sskel {

template <typename T>
class VersionedCache {
 public:
  /// Returns the cached value when `version` matches the version of
  /// the last computation, otherwise recomputes via `compute()` and
  /// stores the result under `version`.
  template <typename Fn>
  const T& get(std::uint64_t version, Fn&& compute) {
    if (!valid_ || version_ != version) {
      value_ = std::forward<Fn>(compute)();
      version_ = version;
      valid_ = true;
      ++recomputes_;
    }
    return value_;
  }

  /// In-place variant of get(): when the stored version is stale,
  /// `update(value)` mutates the previous value instead of building a
  /// replacement, so consumers with patchable state (e.g. per-component
  /// derived data under a shrink-only producer) can carry the parts
  /// that did not change. On the very first fill `value` is the
  /// default-constructed T. Counts as a recompute exactly like get().
  template <typename Fn>
  const T& refresh(std::uint64_t version, Fn&& update) {
    if (!valid_ || version_ != version) {
      std::forward<Fn>(update)(value_);
      version_ = version;
      valid_ = true;
      ++recomputes_;
    }
    return value_;
  }

  /// Number of times compute() or update() actually ran. Tests assert
  /// this equals the number of version bumps (plus one for the
  /// initial fill) when the cache is queried every round.
  [[nodiscard]] std::int64_t recomputes() const { return recomputes_; }

 private:
  bool valid_ = false;
  std::uint64_t version_ = 0;
  std::int64_t recomputes_ = 0;
  T value_{};
};

}  // namespace sskel
