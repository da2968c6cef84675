// The dense reference for Algorithm 1: the pseudocode line by line.
//
// Each process holds its approximation G_p as an n x n label matrix
// (LabeledDigraph), broadcasts it whole, and rebuilds it every round
// by Lines 15-25 verbatim: reset, fresh edges, max-label merge, purge,
// prune (the free functions below, over LabeledDigraph's public API)
// — no structure cache, no interning. The production process
// (kset/skeleton_kset.hpp) keeps O(n) state and derives G_p from it
// (DESIGN.md §8.1); state_mismatch() and run_lockstep() below are how
// the tripwires (tests/kset/compact_kset_test.cpp) and
// fuzz_differential hold the two equal after every round. The
// ablation process (bench/ablation.hpp) builds on DenseMessage.
#pragma once

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/labeled_digraph.hpp"
#include "kset/message.hpp"
#include "kset/runner.hpp"
#include "kset/skeleton_kset.hpp"
#include "rounds/algorithm.hpp"
#include "rounds/engine.hpp"
#include "skeleton/codec.hpp"
#include "skeleton/lemmas.hpp"

namespace sskel::oracles {

/// Resets g to <{owner}, {}> (Line 15).
inline void reset(LabeledDigraph& g, ProcId owner) {
  g = LabeledDigraph(g.n(), owner);
}

/// Adds all nodes of `other` (Line 18) and raises every edge label to
/// the maximum of the two graphs (Lines 19-23, folded over the
/// received graphs one at a time — max is associative, so the fold
/// equals the paper's batch max over R_{i,j}). Walks only the edges
/// of `other`.
inline void merge_max(LabeledDigraph& g, const LabeledDigraph& other) {
  SSKEL_REQUIRE(g.n() == other.n());
  for (ProcId q : other.nodes()) {
    g.add_node(q);
    for (ProcId p : other.out_edges(q)) {
      const Round incoming = other.label(q, p);
      if (incoming > g.label(q, p)) g.set_edge(q, p, incoming);
    }
  }
}

/// Removes every edge with label <= cutoff (Line 24 uses
/// cutoff = r - n). Nodes are untouched.
inline void purge_labels_up_to(LabeledDigraph& g, Round cutoff) {
  if (cutoff <= 0) return;
  for (ProcId q : g.nodes()) {
    for (ProcId p : g.out_edges(q)) {
      if (g.label(q, p) <= cutoff) g.remove_edge(q, p);
    }
  }
}

/// Removes every node (except `owner`) from which `owner` is not
/// reachable, with all incident edges (Line 25). Returns the kept
/// node set.
inline ProcSet prune_not_reaching(LabeledDigraph& g, ProcId owner) {
  SSKEL_REQUIRE(g.has_node(owner));
  ProcSet keep = g.reaching_set(owner);
  if (keep == g.nodes()) return keep;  // every edge joins kept nodes
  LabeledDigraph kept(g.n(), owner);
  for (ProcId q : keep) {
    kept.add_node(q);
    for (ProcId p : g.out_edges(q)) {
      if (keep.contains(p)) kept.set_edge(q, p, g.label(q, p));
    }
  }
  g = std::move(kept);
  return keep;
}

/// (decide | prop, x_q, G_q) with G_q as a full label matrix.
struct DenseMessage {
  bool decide = false;
  Value x = kNoValue;
  /// The sender's G_q at the beginning of the round (G_q^{r-1}).
  LabeledDigraph graph;
};

/// The wire size of the production encoding: tag, value, graph codec.
[[nodiscard]] inline std::int64_t encoded_size(const DenseMessage& m) {
  return 1 + 8 + encoded_graph_size(m.graph);
}

inline void encode_message(const DenseMessage& m,
                           std::vector<std::uint8_t>& out) {
  out.push_back(m.decide ? 1 : 0);
  const auto v = static_cast<std::uint64_t>(m.x);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  const std::vector<std::uint8_t> graph = encode_graph(m.graph);
  out.insert(out.end(), graph.begin(), graph.end());
}

class DenseKSetProcess final : public Algorithm<DenseMessage> {
 public:
  DenseKSetProcess(ProcId n, ProcId id, Value proposal,
                   DecisionGuard guard = DecisionGuard::kAfterRoundN)
      : Algorithm(n, id),
        proposal_(proposal),
        x_(proposal),            // Line 2
        pt_(ProcSet::full(n)),   // Line 1
        g_(n, id),               // Line 3
        guard_(guard) {
    SSKEL_REQUIRE(proposal != kNoValue);
  }

  [[nodiscard]] DenseMessage send(Round /*r*/) override {
    return DenseMessage{decided_, x_, g_};  // Lines 5-8
  }

  void send_into(Round /*r*/, DenseMessage& out) override {
    out.decide = decided_;
    out.x = x_;
    out.graph = g_;
  }

  void transition(Round r, const Inbox<DenseMessage>& inbox) override {
    pt_ &= inbox.senders();  // Line 9
    if (!decided_) {         // Lines 10-13 (min over decide messages)
      Value adopted = kNoValue;
      for (ProcId q : pt_) {
        const DenseMessage& m = inbox.from(q);
        if (m.decide && (adopted == kNoValue || m.x < adopted)) adopted = m.x;
      }
      if (adopted != kNoValue) {
        x_ = adopted;
        decided_ = true;
        decision_round_ = r;
        path_ = DecisionPath::kForwarded;
      }
    }
    reset(g_, id());  // Line 15
    for (ProcId q : pt_) {
      g_.set_edge(q, id(), r);             // Line 17
      merge_max(g_, inbox.from(q).graph);  // Lines 18-23
    }
    purge_labels_up_to(g_, r - n());      // Line 24
    (void)prune_not_reaching(g_, id());  // Line 25
    if (!decided_) {  // Line 26
      Value best = kNoValue;  // Line 27
      for (ProcId q : pt_) {
        const Value xq = inbox.from(q).x;
        if (best == kNoValue || xq < best) best = xq;
      }
      x_ = best;
      const bool guard = guard_ == DecisionGuard::kAfterRoundN ? r > n()
                                                               : r >= n();
      if (guard && g_.strongly_connected()) {  // Lines 28-30
        decided_ = true;
        decision_round_ = r;
        path_ = DecisionPath::kConnected;
      }
    }
  }

  [[nodiscard]] Value proposal() const { return proposal_; }
  [[nodiscard]] Value estimate() const { return x_; }
  [[nodiscard]] bool decided() const { return decided_; }
  [[nodiscard]] Round decision_round() const { return decision_round_; }
  [[nodiscard]] DecisionPath decision_path() const { return path_; }
  [[nodiscard]] const ProcSet& pt() const { return pt_; }
  [[nodiscard]] const LabeledDigraph& approximation() const { return g_; }

 private:
  Value proposal_;
  Value x_;
  ProcSet pt_;
  LabeledDigraph g_;
  bool decided_ = false;
  Round decision_round_ = 0;
  DecisionPath path_ = DecisionPath::kNone;
  DecisionGuard guard_;
};

/// The dense twin of make_kset_processes: same proposals and guard.
[[nodiscard]] inline std::vector<std::unique_ptr<Algorithm<DenseMessage>>>
make_dense_processes(ProcId n, const KSetRunConfig& config) {
  const std::vector<Value> proposals =
      config.proposals.empty() ? default_proposals(n) : config.proposals;
  std::vector<std::unique_ptr<Algorithm<DenseMessage>>> procs;
  for (ProcId p = 0; p < n; ++p) {
    procs.push_back(std::make_unique<DenseKSetProcess>(
        n, p, proposals[static_cast<std::size_t>(p)], config.guard));
  }
  return procs;
}

/// The first difference between a production process and its dense
/// reference at the same cut — estimate, decision, path, PT, then the
/// encoded message, whose canonical bytes pin the derived G_p (nodes,
/// edges, labels) — or "" when they agree. Non-const only because
/// send() is.
[[nodiscard]] inline std::string state_mismatch(SkeletonKSetProcess& compact,
                                                DenseKSetProcess& dense) {
  std::ostringstream os;
  os << "p" << compact.id() << ": ";
  if (compact.estimate() != dense.estimate()) {
    os << "estimate " << compact.estimate() << " vs " << dense.estimate();
    return os.str();
  }
  if (compact.decided() != dense.decided() ||
      compact.decision_round() != dense.decision_round() ||
      compact.decision_path() != dense.decision_path()) {
    os << "decision (" << compact.decided() << ", "
       << compact.decision_round() << ") vs (" << dense.decided() << ", "
       << dense.decision_round() << ")";
    return os.str();
  }
  if (compact.pt() != dense.pt()) {
    os << "PT " << compact.pt().to_string() << " vs "
       << dense.pt().to_string();
    return os.str();
  }
  const SkeletonMessage cm = compact.send(0);
  std::vector<std::uint8_t> cbytes;
  std::vector<std::uint8_t> dbytes;
  encode_message(cm, cbytes);
  encode_message(dense.send(0), dbytes);
  if (cbytes != dbytes) {
    os << compact.approximation().to_string() << " vs "
       << dense.approximation().to_string();
    return os.str();
  }
  if (encoded_size(cm) != static_cast<std::int64_t>(cbytes.size())) {
    os << "encoded_size " << encoded_size(cm) << " vs " << cbytes.size()
       << " bytes";
    return os.str();
  }
  return "";
}

[[nodiscard]] inline ProcessSnapshot snapshot_of(
    const LabeledDigraph& approx, const ProcSet& pt, Value estimate,
    bool decided, DecisionPath path, Round decision_round) {
  ProcessSnapshot s;
  s.approx = approx;
  s.pt = pt;
  s.estimate = estimate;
  s.decided = decided;
  s.decided_via_message = path == DecisionPath::kForwarded;
  s.decision_round = decision_round;
  return s;
}

struct LockstepResult {
  /// The first difference ("r<round> p<id>: ..."), or "" when none.
  std::string mismatch;
  Round rounds = 0;
  std::int64_t process_rounds = 0;
  /// LemmaMonitor verdicts of each side (empty unless monitored).
  std::vector<std::string> compact_violations;
  std::vector<std::string> dense_violations;
};

/// Steps a production engine and a dense one (built from
/// make_kset_processes and make_dense_processes over the same graph
/// sequence) for `rounds` rounds, comparing their round graphs and
/// every process after every round; stops at the first difference.
/// With `monitor`, each side also feeds its own LemmaMonitor.
[[nodiscard]] inline LockstepResult run_lockstep(
    RoundEngine<SkeletonMessage>& compact, RoundEngine<DenseMessage>& dense,
    Round rounds, bool monitor = false) {
  const ProcId n = compact.n();
  SSKEL_REQUIRE(dense.n() == n);
  std::unique_ptr<LemmaMonitor> cmon;
  std::unique_ptr<LemmaMonitor> dmon;
  if (monitor) {
    cmon = std::make_unique<LemmaMonitor>(n);
    dmon = std::make_unique<LemmaMonitor>(n);
  }
  LockstepResult result;
  for (Round r = 1; r <= rounds && result.mismatch.empty(); ++r) {
    const Digraph& cg = compact.step();
    const Digraph& dg = dense.step();
    result.rounds = r;
    if (cg != dg) {
      result.mismatch = "r" + std::to_string(r) + ": round graphs differ";
      break;
    }
    std::vector<ProcessSnapshot> csnaps;
    std::vector<ProcessSnapshot> dsnaps;
    for (ProcId p = 0; p < n; ++p) {
      auto& c = dynamic_cast<SkeletonKSetProcess&>(compact.process(p));
      auto& d = dynamic_cast<DenseKSetProcess&>(dense.process(p));
      ++result.process_rounds;
      if (std::string diff = state_mismatch(c, d); !diff.empty()) {
        result.mismatch = "r" + std::to_string(r) + " " + diff;
        break;
      }
      if (monitor) {
        csnaps.push_back(snapshot_of(c.approximation(), c.pt(), c.estimate(),
                                     c.decided(), c.decision_path(),
                                     c.decision_round()));
        dsnaps.push_back(snapshot_of(d.approximation(), d.pt(), d.estimate(),
                                     d.decided(), d.decision_path(),
                                     d.decision_round()));
      }
    }
    if (monitor && result.mismatch.empty()) {
      cmon->observe_round(r, cg, csnaps);
      dmon->observe_round(r, dg, dsnaps);
    }
  }
  if (monitor) {
    cmon->finalize();
    dmon->finalize();
    result.compact_violations = cmon->violations();
    result.dense_violations = dmon->violations();
  }
  return result;
}

}  // namespace sskel::oracles
