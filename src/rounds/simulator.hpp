// The deterministic round simulator: the GraphSource-backed
// RoundEngine.
//
// Executes communication-closed rounds over a fixed set of processes:
// every round r, (1) query the GraphSource for G^r and close it under
// self-loops, (2) invoke every sending function S_p^r, (3) deliver to
// each p exactly the messages of its in-neighbors in G^r, (4) invoke
// every transition function T_p^r. Step (2) completes before any step
// (4) starts, so a message sent in round r can only be received in
// round r — the communication-closed property of Sec. II.
//
// Observers on the engine's bus fire once per round after all
// transitions (the consistent end-of-round cut shared with the network
// substrate), receiving G^r.
//
// Hot path: the round graph and the per-process outboxes are reused
// across rounds — GraphSource::graph_into writes G^r into the same
// Digraph every round, so a steady-state round performs no graph
// allocations — and every inbox reads the outbox through one pointer
// table built at construction, so no message is copied.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "rounds/algorithm.hpp"
#include "rounds/engine.hpp"
#include "rounds/graph_source.hpp"
#include "rounds/trace.hpp"
#include "util/assert.hpp"

namespace sskel {

template <typename Msg>
class Simulator final : public RoundEngine<Msg> {
 public:
  using Process = Algorithm<Msg>;

  /// Takes ownership of the processes. `processes[i]` must have id i.
  Simulator(GraphSource& source,
            std::vector<std::unique_ptr<Process>> processes)
      : source_(&source), processes_(std::move(processes)) {
    SSKEL_REQUIRE(!processes_.empty());
    SSKEL_REQUIRE(static_cast<std::size_t>(source_->n()) == processes_.size());
    for (std::size_t i = 0; i < processes_.size(); ++i) {
      SSKEL_REQUIRE(processes_[i] != nullptr);
      SSKEL_REQUIRE(processes_[i]->id() == static_cast<ProcId>(i));
    }
    outbox_.resize(processes_.size());
    // The inbox view reads the outbox in place: one pointer per
    // sender, fixed for the simulator's lifetime (outbox_ never
    // reallocates).
    outbox_view_.reserve(outbox_.size());
    for (const Msg& msg : outbox_) outbox_view_.push_back(&msg);
  }

  [[nodiscard]] ProcId n() const override { return source_->n(); }
  [[nodiscard]] Round current_round() const { return round_; }
  [[nodiscard]] Round rounds_completed() const override { return round_; }

  /// Rebinds the simulator to a fresh source and resets all run state
  /// — round counter, observers, sizer, trace — restoring the
  /// freshly-constructed engine contract (rounds_completed() == 0)
  /// while keeping the process objects and the graph/outbox storage.
  /// The caller must reset the processes themselves (the engine does
  /// not know their internals); `source` must have the same n.
  void reset(GraphSource& source) {
    SSKEL_REQUIRE(static_cast<std::size_t>(source.n()) == processes_.size());
    source_ = &source;
    round_ = 0;
    this->reset_run_state();
  }

  [[nodiscard]] Process& process(ProcId p) override {
    SSKEL_REQUIRE(p >= 0 && p < n());
    return *processes_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] const Process& process(ProcId p) const override {
    SSKEL_REQUIRE(p >= 0 && p < n());
    return *processes_[static_cast<std::size_t>(p)];
  }

  /// Executes one full round; returns the communication graph used
  /// (after self-loop closure).
  const Digraph& step() override {
    const Round r = ++round_;
    source_->graph_into(r, graph_);
    SSKEL_REQUIRE(graph_.n() == n());
    SSKEL_REQUIRE(graph_.node_count() == n());
    graph_.add_self_loops();

    // Phase 1: all sends, from beginning-of-round state. send_into
    // refreshes the outbox slots in place, so steady-state rounds do
    // not reallocate message storage.
    for (std::size_t i = 0; i < processes_.size(); ++i) {
      processes_[i]->send_into(r, outbox_[i]);
    }

    // Phase 2: deliveries + transitions.
    RoundStats stats;
    stats.round = r;
    for (ProcId p = 0; p < n(); ++p) {
      const ProcSet& senders = graph_.in_neighbors(p);
      stats.messages_delivered += senders.count();
      if (this->sizer_) {
        for (ProcId q : senders) {
          const std::int64_t bytes =
              this->sizer_(outbox_[static_cast<std::size_t>(q)]);
          stats.bytes_delivered += bytes;
          stats.max_message_bytes = std::max(stats.max_message_bytes, bytes);
        }
      }
      const Inbox<Msg> inbox(senders, outbox_view_);
      processes_[static_cast<std::size_t>(p)]->transition(r, inbox);
    }
    this->trace_.record(stats);

    // End-of-round cut: every process is in its round-r final state.
    this->bus_.notify(r, graph_);
    return graph_;
  }

 private:
  GraphSource* source_;  // non-owning; rebound by reset()
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<Msg> outbox_;
  std::vector<const Msg*> outbox_view_;  // &outbox_[q], the inbox table
  Digraph graph_;
  Round round_ = 0;
};

}  // namespace sskel
