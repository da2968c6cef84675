#include "skeleton/tracker.hpp"

#include "skeleton/intern.hpp"
#include "util/assert.hpp"

namespace sskel {

SkeletonTracker::SkeletonTracker(ProcId n, History history)
    : n_(n), history_(history), skeleton_(Digraph::complete(n)) {
  SSKEL_REQUIRE(n > 0);
}

void SkeletonTracker::observe(Round r, const Digraph& graph) {
  SSKEL_REQUIRE(graph.n() == n_);
  SSKEL_REQUIRE(r == round_ + 1);
  round_ = r;
  // The AND itself detects shrinkage — no pre-round copy, no graph
  // comparison. A no-op round costs exactly the intersection. Once the
  // SCC maintainer is seeded the intersection also materializes what
  // it removed, so the next analytics query can patch instead of
  // recompute; before that (or when analytics are never queried) the
  // delta-free path runs.
  const bool changed = inc_scc_.seeded()
                           ? skeleton_.intersect_collect(graph, pending_)
                           : skeleton_.intersect_with(graph);
  if (changed) {
    last_change_ = r;
    ++version_;
  }
  if (history_ == History::kKeepAll) past_.push_back(skeleton_);
}

void SkeletonTracker::reset() {
  skeleton_.fill_complete();
  past_.clear();
  round_ = 0;
  last_change_ = 0;
  version_ = 0;
  intern_ = nullptr;
  entry_ = nullptr;
  // Only interned runs leave the private maintainer unseeded; every
  // other run seeds it at its first analytics query (a Monte-Carlo
  // trial's report asks for the root components), so this replacement
  // is a per-trial cost on the plane.
  if (inc_scc_.seeded()) inc_scc_ = IncrementalScc();
  pending_.clear();
  roots_.clear();
  analytics_version_ = 0;
  analytics_valid_ = false;
  analytics_recomputes_ = 0;
}

const Digraph& SkeletonTracker::skeleton_at(Round r) const {
  SSKEL_REQUIRE(history_ == History::kKeepAll);
  SSKEL_REQUIRE(r >= 1 && r <= static_cast<Round>(past_.size()));
  return past_[static_cast<std::size_t>(r - 1)];
}

void SkeletonTracker::attach_intern(StructureInternTable* table) {
  SSKEL_REQUIRE(table != nullptr);
  SSKEL_REQUIRE(!analytics_valid_ && !inc_scc_.seeded());
  intern_ = table;
}

const InternedStructure* SkeletonTracker::interned_current() const {
  refresh_analytics();
  return entry_;
}

void SkeletonTracker::refresh_analytics() const {
  if (analytics_valid_ && analytics_version_ == version_) return;
  if (intern_ != nullptr && !inc_scc_.seeded()) {
    // One fingerprint per version bump; the entry's analytics are
    // shared with every other resolver of the same structure. On
    // overflow (nullptr) fall through to the private incremental
    // path and stay there: once inc_scc_ is seeded, observe() starts
    // collecting deltas and the two paths must not alternate (the
    // interned branch clears pending_, which would starve a later
    // apply()).
    entry_ = intern_->intern(skeleton_);
    if (entry_ != nullptr) {
      roots_ = entry_->root_components();
      pending_.clear();
      analytics_version_ = version_;
      analytics_valid_ = true;
      ++analytics_recomputes_;
      return;
    }
  }
  if (!inc_scc_.seeded()) {
    inc_scc_.seed(skeleton_);
  } else {
    inc_scc_.apply(skeleton_, pending_);
  }
  pending_.clear();
  roots_.clear();
  for (int idx : inc_scc_.root_indices()) {
    roots_.push_back(
        inc_scc_.decomposition().components[static_cast<std::size_t>(idx)]);
  }
  analytics_version_ = version_;
  analytics_valid_ = true;
  ++analytics_recomputes_;
}

const SccDecomposition& SkeletonTracker::current_scc() const {
  refresh_analytics();
  return entry_ != nullptr ? entry_->scc() : inc_scc_.decomposition();
}

const std::vector<ProcSet>& SkeletonTracker::current_root_components() const {
  refresh_analytics();
  return roots_;
}

const std::vector<int>& SkeletonTracker::current_root_indices() const {
  refresh_analytics();
  return entry_ != nullptr ? entry_->root_indices() : inc_scc_.root_indices();
}

const std::vector<int>& SkeletonTracker::component_origin() const {
  return inc_scc_.origin_of();
}

}  // namespace sskel
