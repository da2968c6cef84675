// Run-wide structure interning: hash-consed skeletons with shared
// analytics.
//
// The intern table maps each *distinct* structure — node set plus
// out-edge rows — to one canonical InternedStructure that owns the
// expensive analytics (Tarjan decomposition, root components), so
// consumers that meet the same skeleton again pay for them once
// (DESIGN.md §10). Interning is opt-in: SkeletonTracker and
// LemmaMonitor use a table when KSetRunConfig::intern supplies a
// domain. Algorithm 1's processes never intern — they answer Lines
// 25 and 28 from their own rows (DESIGN.md §8.1).
//
// Lookup is a seeded 128-bit fingerprint (graph/fingerprint.hpp) into
// a fixed bucket array, with every fingerprint hit confirmed by a full
// word-level structure compare — a colliding fingerprint costs one
// extra O(n^2/64) scan, never a wrong answer. Tables are single-
// threaded by design; the Monte-Carlo path shards one table per worker
// thread through InternDomain (no locks on the lookup path). A
// read-mostly InternGlobalTier on top of the shards shares SCC
// analytics across workers: a shard that already paid for an SCC
// decomposition promotes an immutable snapshot, and other shards adopt
// it on their first miss instead of recomputing.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/fingerprint.hpp"
#include "graph/scc.hpp"
#include "util/types.hpp"

namespace sskel {

/// Counters of one intern table (or the merged view of a domain's
/// shards). Reported through BENCH_*.json so tools/bench_diff.py
/// tracks them across runs.
struct InternStats {
  std::int64_t hits = 0;    // resolved to an existing entry
  std::int64_t misses = 0;  // created a new entry
  /// Chain entries whose fingerprint matched but whose structure
  /// compare failed — the full-equality fallback firing.
  std::int64_t fingerprint_collisions = 0;
  /// Lookups rejected because the table was at max_entries; callers
  /// fall back to their private computation path.
  std::int64_t overflow_rejects = 0;
  std::int64_t entries = 0;
  /// Analytics actually computed across all entries (each at most
  /// once per entry/owner-component): the denominator that makes the
  /// hit counters meaningful.
  std::int64_t scc_computes = 0;
  std::int64_t keep_computes = 0;
  /// Cross-shard promotion (DESIGN.md §10): shard entries with
  /// materialized analytics accepted into the domain's global tier,
  /// and shard misses served by adopting a global snapshot instead of
  /// recomputing from scratch.
  std::int64_t promotions = 0;
  std::int64_t promotion_hits = 0;

  InternStats& operator+=(const InternStats& other);
};

/// One canonical skeleton structure with lazily materialized shared
/// analytics. Entries are owned by a StructureInternTable, have stable
/// addresses for the table's lifetime, and are immutable in structure;
/// all analytics are memoized on first query. Not thread-safe — a
/// table and its entries belong to one thread (see InternDomain).
class InternedStructure {
 public:
  InternedStructure(ProcId n, Fingerprint128 fp, ProcSet nodes,
                    std::vector<ProcSet> rows);

  [[nodiscard]] ProcId n() const { return n_; }
  [[nodiscard]] const Fingerprint128& fingerprint() const { return fp_; }
  [[nodiscard]] const ProcSet& nodes() const { return nodes_; }
  [[nodiscard]] const ProcSet& row(ProcId q) const {
    return rows_[static_cast<std::size_t>(q)];
  }

  /// The structure as an unlabeled Digraph (materialized on first use;
  /// one counted Digraph construction per entry, never per round).
  [[nodiscard]] const Digraph& graph();

  /// Tarjan decomposition / root components of the structure.
  [[nodiscard]] const SccDecomposition& scc();
  [[nodiscard]] const std::vector<int>& root_indices();
  [[nodiscard]] const std::vector<ProcSet>& root_components();

  /// Line 28 on the *unpruned* structure: one SCC covering a nonempty
  /// node set.
  [[nodiscard]] bool strongly_connected();

  /// Line 25's keep-set for `owner` (must be a node): the set of nodes
  /// that reach `owner`. Bit-equal to LabeledDigraph::reaching_set(owner)
  /// on the same structure.
  /// Served from the condensation's reach closure, cached per owner
  /// *component* — processes in one SCC share the answer.
  [[nodiscard]] const ProcSet& keep_set(ProcId owner);

  /// Line 28 on the graph *after* the Line-25 prune for `owner`,
  /// without materializing the pruned graph: the pruned graph (induced
  /// on keep_set) is strongly connected iff keep_set(owner) equals
  /// owner's SCC — "⊇" holds always (the SCC reaches owner), and any
  /// node reaching owner outside the SCC is a node the SCC cannot
  /// reach back. A cardinality compare therefore decides it.
  [[nodiscard]] bool pruned_strongly_connected(ProcId owner);

  [[nodiscard]] std::int64_t scc_computes() const { return scc_computes_; }
  [[nodiscard]] std::int64_t keep_computes() const { return keep_computes_; }

  /// Whether this entry carries analytics worth sharing across shards
  /// (the global-tier promotion policy: structure alone is cheap to
  /// rebuild; an SCC decomposition is not).
  [[nodiscard]] bool has_shared_analytics() const { return scc_ready_; }

  /// Zeroes the analytics-compute counters. Used on clones entering
  /// the global tier so adopted copies never double-count work that
  /// the originating shard already reported.
  void reset_compute_counters() {
    scc_computes_ = 0;
    keep_computes_ = 0;
  }

 private:
  void ensure_graph();
  void ensure_scc();
  /// Builds reachers_[c] = components that reach component c
  /// (including c), by one pass over the components in decreasing
  /// index order — reverse-topological order guarantees an edge
  /// d -> c implies c < d, so reachers_[d] is complete when c needs
  /// it.
  void ensure_reach_closure();

  ProcId n_;
  Fingerprint128 fp_;
  ProcSet nodes_;
  std::vector<ProcSet> rows_;

  bool graph_ready_ = false;
  Digraph graph_;
  bool scc_ready_ = false;
  SccDecomposition scc_;
  std::vector<int> root_indices_;
  std::vector<ProcSet> root_components_;
  bool closure_ready_ = false;
  std::vector<ProcSet> reachers_;  // universe = component count
  std::vector<ProcSet> keep_by_comp_;
  std::vector<char> keep_ready_;

  std::int64_t scc_computes_ = 0;
  std::int64_t keep_computes_ = 0;
};

struct InternTableOptions {
  /// log2 of the bucket count. Fixed at construction (no rehash: the
  /// max_entries cap bounds the load factor, and chains absorb skew).
  int bucket_bits = 12;
  /// Entry cap; intern() returns nullptr once reached (callers keep
  /// their private path). An entry is O(n^2/8) bytes, so the default
  /// bounds a shard at ~35 MB even at n = 512.
  std::size_t max_entries = 1024;
  /// Fingerprint seed; distinct seeds give independent hash functions.
  std::uint64_t seed = 0x736b656c65746f6eULL;  // "skeleton"
  /// Test seam: replace every fingerprint with a constant so all
  /// entries land in one bucket with equal keys, forcing lookups
  /// through the full-equality fallback.
  bool degrade_fingerprint_for_tests = false;
};

/// Read-mostly global tier over a domain's per-worker shards. The tier
/// promotes SCC analytics only: a shard that materializes an entry's
/// SCC decomposition *offers* an immutable snapshot of the entry here;
/// a shard that misses on a structure first consults the tier and
/// *adopts* the snapshot — analytics included — instead of recomputing
/// from scratch. Entries are immutable once offered (shared_ptr<const>),
/// so readers only pay a shared lock plus a fingerprint scan; the
/// exclusive lock is taken only on offers, which happen at most once
/// per (shard, entry). First offer per fingerprint wins.
class InternGlobalTier {
 public:
  /// Immutable snapshot for the fingerprint, or nullptr. The caller
  /// must still verify same-structure before adopting (a colliding
  /// fingerprint must not smuggle in a wrong graph's analytics).
  [[nodiscard]] std::shared_ptr<const InternedStructure> lookup(
      const Fingerprint128& fp) const;

  /// Publishes a snapshot; a snapshot already present for the same
  /// fingerprint is kept (first writer wins). Returns whether this
  /// call inserted.
  bool offer(std::shared_ptr<const InternedStructure> snapshot);

  [[nodiscard]] std::size_t entry_count() const;

 private:
  mutable std::shared_mutex mu_;
  std::vector<std::shared_ptr<const InternedStructure>> entries_;
};

/// Hash-consing table from structure to canonical InternedStructure.
/// Entries have stable addresses (unique_ptr storage) and live as long
/// as the table. Single-threaded; see InternDomain for the sharded
/// Monte-Carlo use.
class StructureInternTable {
 public:
  explicit StructureInternTable(InternTableOptions options = {});

  StructureInternTable(const StructureInternTable&) = delete;
  StructureInternTable& operator=(const StructureInternTable&) = delete;

  /// Resolves the structure of `g` to its canonical entry, creating it
  /// on first sight. Returns nullptr when the table is full
  /// (overflow_rejects counts those; callers fall back to private
  /// computation).
  InternedStructure* intern(const Digraph& g);

  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }

  /// Lookup counters plus the entry-level analytics counters summed on
  /// demand.
  [[nodiscard]] InternStats stats() const;

  [[nodiscard]] const InternTableOptions& options() const { return options_; }

  /// Attaches the table to a cross-shard tier (nullptr detaches). The
  /// tier must outlive the table; InternDomain wires each shard to the
  /// domain-owned tier on creation.
  void set_global_tier(InternGlobalTier* tier) { tier_ = tier; }

 private:
  [[nodiscard]] Fingerprint128 fingerprint_of(const Digraph& g) const;
  [[nodiscard]] static bool same_structure(const InternedStructure& entry,
                                           const Digraph& g);
  /// Hit-path hook: offers entry `idx` to the tier once it carries
  /// analytics worth sharing (at most one offer per entry).
  void maybe_promote(std::size_t idx);

  InternTableOptions options_;
  std::size_t bucket_mask_;
  std::vector<int> buckets_;  // head entry index per bucket, -1 empty
  std::vector<int> next_;     // chain link per entry, parallel to entries_
  std::vector<std::unique_ptr<InternedStructure>> entries_;
  std::vector<char> offered_;  // entry already offered to the tier
  InternGlobalTier* tier_ = nullptr;
  InternStats stats_;  // lookup counters only; stats() adds entry counters
};

/// A run-scoped family of intern tables, one shard per worker thread,
/// so McTilePlane's tiles each share structures across the trials
/// they run without any lock on the lookup path. local() hands the
/// calling thread its shard (created on first use behind a mutex,
/// then served from a thread-local cache keyed by a globally unique
/// domain id — never a dangling pointer, even across domain
/// lifetimes at the same address). merged_stats() sums the shards.
class InternDomain {
 public:
  explicit InternDomain(InternTableOptions options = {});

  InternDomain(const InternDomain&) = delete;
  InternDomain& operator=(const InternDomain&) = delete;

  /// This thread's shard. The reference stays valid for the domain's
  /// lifetime; the domain must outlive all users (McTilePlane owns its
  /// domain for as long as its tiles run).
  [[nodiscard]] StructureInternTable& local();

  [[nodiscard]] std::size_t shard_count() const;
  [[nodiscard]] InternStats merged_stats() const;

  /// The domain-owned cross-shard tier every shard is wired to.
  [[nodiscard]] const InternGlobalTier& global_tier() const { return tier_; }

 private:
  std::uint64_t id_;
  InternTableOptions options_;
  InternGlobalTier tier_;
  mutable std::mutex mu_;
  std::vector<std::pair<std::thread::id, std::unique_ptr<StructureInternTable>>>
      shards_;
};

}  // namespace sskel
