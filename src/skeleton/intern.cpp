#include "skeleton/intern.hpp"

#include <atomic>

#include "util/assert.hpp"

namespace sskel {

InternStats& InternStats::operator+=(const InternStats& other) {
  hits += other.hits;
  misses += other.misses;
  fingerprint_collisions += other.fingerprint_collisions;
  overflow_rejects += other.overflow_rejects;
  entries += other.entries;
  scc_computes += other.scc_computes;
  keep_computes += other.keep_computes;
  promotions += other.promotions;
  promotion_hits += other.promotion_hits;
  return *this;
}

std::shared_ptr<const InternedStructure> InternGlobalTier::lookup(
    const Fingerprint128& fp) const {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  for (const auto& entry : entries_) {
    if (entry->fingerprint() == fp) return entry;
  }
  return nullptr;
}

bool InternGlobalTier::offer(
    std::shared_ptr<const InternedStructure> snapshot) {
  SSKEL_REQUIRE(snapshot != nullptr);
  const std::unique_lock<std::shared_mutex> lock(mu_);
  for (const auto& entry : entries_) {
    if (entry->fingerprint() == snapshot->fingerprint()) return false;
  }
  entries_.push_back(std::move(snapshot));
  return true;
}

std::size_t InternGlobalTier::entry_count() const {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_.size();
}

InternedStructure::InternedStructure(ProcId n, Fingerprint128 fp,
                                     ProcSet nodes, std::vector<ProcSet> rows)
    : n_(n), fp_(fp), nodes_(std::move(nodes)), rows_(std::move(rows)) {
  SSKEL_REQUIRE(static_cast<ProcId>(rows_.size()) == n_);
}

void InternedStructure::ensure_graph() {
  if (graph_ready_) return;
  Digraph g(n_);
  for (ProcId p = 0; p < n_; ++p) {
    if (!nodes_.contains(p)) g.remove_node(p);
  }
  for (ProcId q : nodes_) {
    for (ProcId p : rows_[static_cast<std::size_t>(q)]) {
      g.add_edge(q, p);
    }
  }
  graph_ = std::move(g);
  graph_ready_ = true;
}

const Digraph& InternedStructure::graph() {
  ensure_graph();
  return graph_;
}

void InternedStructure::ensure_scc() {
  if (scc_ready_) return;
  ensure_graph();
  scc_ = strongly_connected_components(graph_);
  root_indices_ = root_component_indices(graph_, scc_);
  root_components_.clear();
  for (const int idx : root_indices_) {
    root_components_.push_back(
        scc_.components[static_cast<std::size_t>(idx)]);
  }
  scc_ready_ = true;
  ++scc_computes_;
}

const SccDecomposition& InternedStructure::scc() {
  ensure_scc();
  return scc_;
}

const std::vector<int>& InternedStructure::root_indices() {
  ensure_scc();
  return root_indices_;
}

const std::vector<ProcSet>& InternedStructure::root_components() {
  ensure_scc();
  return root_components_;
}

bool InternedStructure::strongly_connected() {
  ensure_scc();
  return scc_.count() == 1;
}

void InternedStructure::ensure_reach_closure() {
  if (closure_ready_) return;
  ensure_scc();
  const int comp_count = scc_.count();
  const ProcId universe = static_cast<ProcId>(comp_count);
  // in_edges[c] = components with a condensation edge into c. Reverse
  // topological order means every such predecessor has a *larger*
  // index.
  std::vector<ProcSet> in_edges(static_cast<std::size_t>(comp_count),
                                ProcSet(universe));
  for (ProcId q : nodes_) {
    const int cq = scc_.component_of[static_cast<std::size_t>(q)];
    for (ProcId p : rows_[static_cast<std::size_t>(q)]) {
      const int cp = scc_.component_of[static_cast<std::size_t>(p)];
      if (cp != cq) {
        in_edges[static_cast<std::size_t>(cp)].insert(static_cast<ProcId>(cq));
      }
    }
  }
  reachers_.assign(static_cast<std::size_t>(comp_count), ProcSet(universe));
  for (int c = comp_count - 1; c >= 0; --c) {
    ProcSet& reach = reachers_[static_cast<std::size_t>(c)];
    reach.insert(static_cast<ProcId>(c));
    for (ProcId d : in_edges[static_cast<std::size_t>(c)]) {
      reach |= reachers_[static_cast<std::size_t>(d)];
    }
  }
  closure_ready_ = true;
}

const ProcSet& InternedStructure::keep_set(ProcId owner) {
  SSKEL_REQUIRE(nodes_.contains(owner));
  ensure_reach_closure();
  if (keep_ready_.empty()) {
    keep_ready_.assign(static_cast<std::size_t>(scc_.count()), 0);
    keep_by_comp_.assign(static_cast<std::size_t>(scc_.count()), ProcSet());
  }
  const std::size_t co =
      static_cast<std::size_t>(scc_.component_of[static_cast<std::size_t>(owner)]);
  if (!keep_ready_[co]) {
    ProcSet keep(n_);
    for (ProcId d : reachers_[co]) {
      keep |= scc_.components[static_cast<std::size_t>(d)];
    }
    keep_by_comp_[co] = std::move(keep);
    keep_ready_[co] = 1;
    ++keep_computes_;
  }
  return keep_by_comp_[co];
}

bool InternedStructure::pruned_strongly_connected(ProcId owner) {
  const ProcSet& keep = keep_set(owner);
  const std::size_t co =
      static_cast<std::size_t>(scc_.component_of[static_cast<std::size_t>(owner)]);
  return keep.count() == scc_.components[co].count();
}

StructureInternTable::StructureInternTable(InternTableOptions options)
    : options_(options),
      bucket_mask_((std::size_t{1} << options.bucket_bits) - 1),
      buckets_(std::size_t{1} << options.bucket_bits, -1) {
  SSKEL_REQUIRE(options.bucket_bits >= 0 && options.bucket_bits <= 24);
}

Fingerprint128 StructureInternTable::fingerprint_of(
    const RowSource& src) const {
  if (options_.degrade_fingerprint_for_tests) {
    return Fingerprint128{0x5eedULL, 0x5eedULL};
  }
  FingerprintBuilder b(options_.seed);
  b.mix_word(static_cast<std::uint64_t>(src.n));
  b.mix_set(*src.nodes);
  for (ProcId q = 0; q < src.n; ++q) {
    b.mix_set(src.row(src.ctx, q));
  }
  return b.finish();
}

bool StructureInternTable::same_structure(const InternedStructure& entry,
                                          const RowSource& src) {
  if (entry.n() != src.n) return false;
  if (!(entry.nodes() == *src.nodes)) return false;
  for (ProcId q = 0; q < src.n; ++q) {
    if (!(entry.row(q) == src.row(src.ctx, q))) return false;
  }
  return true;
}

void StructureInternTable::maybe_promote(std::size_t idx) {
  if (tier_ == nullptr || offered_[idx] != 0) return;
  InternedStructure& entry = *entries_[idx];
  // Nothing shareable yet (the caller may compute analytics after this
  // lookup returns) — leave the flag clear so a later hit re-checks.
  if (!entry.has_shared_analytics()) return;
  auto snapshot = std::make_shared<InternedStructure>(entry);
  // The originating shard already reported this work; the snapshot
  // must not report it again through an adopting shard's stats().
  snapshot->reset_compute_counters();
  tier_->offer(std::move(snapshot));
  offered_[idx] = 1;
  ++stats_.promotions;
}

InternedStructure* StructureInternTable::resolve(const RowSource& src) {
  const Fingerprint128 fp = fingerprint_of(src);
  const std::size_t bucket = static_cast<std::size_t>(fp.lo) & bucket_mask_;
  for (int i = buckets_[bucket]; i >= 0;
       i = next_[static_cast<std::size_t>(i)]) {
    InternedStructure& entry = *entries_[static_cast<std::size_t>(i)];
    if (entry.fingerprint() == fp) {
      if (same_structure(entry, src)) {
        ++stats_.hits;
        maybe_promote(static_cast<std::size_t>(i));
        return &entry;
      }
      ++stats_.fingerprint_collisions;
    }
  }
  if (entries_.size() >= options_.max_entries) {
    ++stats_.overflow_rejects;
    return nullptr;
  }
  // Shard miss: adopt a promoted snapshot — analytics included — when
  // another shard has already interned this structure. The full
  // structure compare keeps a colliding fingerprint from smuggling in
  // the wrong graph's analytics.
  std::unique_ptr<InternedStructure> fresh;
  bool adopted = false;
  if (tier_ != nullptr) {
    if (const auto snapshot = tier_->lookup(fp);
        snapshot != nullptr && same_structure(*snapshot, src)) {
      fresh = std::make_unique<InternedStructure>(*snapshot);
      adopted = true;
    }
  }
  if (fresh == nullptr) {
    std::vector<ProcSet> rows;
    rows.reserve(static_cast<std::size_t>(src.n));
    for (ProcId q = 0; q < src.n; ++q) {
      rows.push_back(src.row(src.ctx, q));
    }
    fresh = std::make_unique<InternedStructure>(src.n, fp, *src.nodes,
                                                std::move(rows));
  }
  entries_.push_back(std::move(fresh));
  next_.push_back(buckets_[bucket]);
  buckets_[bucket] = static_cast<int>(entries_.size() - 1);
  // An adopted entry came *from* the tier; never re-offer it.
  offered_.push_back(adopted ? 1 : 0);
  ++stats_.misses;
  if (adopted) ++stats_.promotion_hits;
  return entries_.back().get();
}

InternedStructure* StructureInternTable::intern(const Digraph& g) {
  const RowSource src{
      g.n(), &g.nodes(),
      [](const void* ctx, ProcId q) -> const ProcSet& {
        return static_cast<const Digraph*>(ctx)->out_neighbors(q);
      },
      &g};
  return resolve(src);
}

InternedStructure* StructureInternTable::intern(
    const ProcSet& nodes, const std::vector<ProcSet>& rows) {
  SSKEL_REQUIRE(rows.size() == static_cast<std::size_t>(nodes.universe()));
  const RowSource src{
      nodes.universe(), &nodes,
      [](const void* ctx, ProcId q) -> const ProcSet& {
        return (*static_cast<const std::vector<ProcSet>*>(
            ctx))[static_cast<std::size_t>(q)];
      },
      &rows};
  return resolve(src);
}

InternStats StructureInternTable::stats() const {
  InternStats total = stats_;
  total.entries = static_cast<std::int64_t>(entries_.size());
  for (const auto& entry : entries_) {
    total.scc_computes += entry->scc_computes();
    total.keep_computes += entry->keep_computes();
  }
  return total;
}

namespace {

std::uint64_t next_domain_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

InternDomain::InternDomain(InternTableOptions options)
    : id_(next_domain_id()), options_(options) {}

StructureInternTable& InternDomain::local() {
  // Single-entry thread-local cache: a worker inside one Monte-Carlo
  // region always asks for the same domain, so the common case is one
  // id compare. The id is globally unique (never reused), so a cached
  // pointer from a destroyed domain can never be returned for a new
  // domain allocated at the same address.
  struct Cached {
    std::uint64_t domain_id = 0;
    StructureInternTable* table = nullptr;
  };
  thread_local Cached cached;
  if (cached.domain_id == id_) return *cached.table;

  const std::thread::id me = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [tid, table] : shards_) {
    if (tid == me) {
      cached = {id_, table.get()};
      return *cached.table;
    }
  }
  shards_.emplace_back(me, std::make_unique<StructureInternTable>(options_));
  shards_.back().second->set_global_tier(&tier_);
  cached = {id_, shards_.back().second.get()};
  return *cached.table;
}

std::size_t InternDomain::shard_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

InternStats InternDomain::merged_stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  InternStats total;
  for (const auto& [tid, table] : shards_) {
    total += table->stats();
  }
  return total;
}

}  // namespace sskel
