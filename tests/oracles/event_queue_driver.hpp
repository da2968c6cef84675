// The event-queue reference for the network message plane.
//
// NetRoundDriver (src/net/driver.hpp) decides timeliness analytically
// against the receiver's deadline when a message is sent, deposits
// on-time messages into the inboxes right then and counts them at
// their arrival instants. This header is the specification it is
// checked against: the same round synchronizer written the direct
// way, with one scheduled event per point-to-point message and each
// round close as one more event in the same deterministic (time, seq)
// order. Given the same NetConfig, links and processes, the two must
// consume the RNG identically and produce bit-identical reports,
// message counters, simulated clocks and captures; only the capture's
// source tag differs (kNetEventQueue here). Unlike the driver, which
// deposits pointers into its dcache and relies on the parity slots
// outliving every close, the oracle copies each delivered message into
// its own inbox storage, so it checks that lifetime argument instead
// of sharing it. The plane tripwires
// (tests/net/plane_equivalence_test.cpp, trace_capture_test.cpp) and
// the net fuzz targets compare the driver against it.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "net/driver.hpp"
#include "net/event_queue.hpp"
#include "net/link.hpp"
#include "rounds/algorithm.hpp"
#include "rounds/engine.hpp"
#include "rounds/inbox.hpp"
#include "util/rng.hpp"

namespace sskel::oracles {

template <typename Msg>
class EventQueueDriver final : public RoundEngine<Msg> {
 public:
  using Process = Algorithm<Msg>;
  using TraceEncoder =
      std::function<void(const Msg&, std::vector<std::uint8_t>&)>;

  /// NetRoundDriver's constructor contract.
  EventQueueDriver(NetConfig config, LinkMatrix links,
                   std::vector<std::unique_ptr<Process>> processes)
      : config_(std::move(config)),
        links_(std::move(links)),
        processes_(std::move(processes)),
        rng_(config_.seed),
        inboxes_(static_cast<ProcId>(processes_.size())),
        dcache_(2 * processes_.size()),
        copies_(2 * processes_.size() * processes_.size()) {
    const std::size_t n = processes_.size();
    SSKEL_REQUIRE(n > 0);
    SSKEL_REQUIRE(links_.n() == static_cast<ProcId>(n));
    SSKEL_REQUIRE(config_.round_duration > 0);
    if (config_.skews.empty()) config_.skews.assign(n, 0);
    SSKEL_REQUIRE(config_.skews.size() == n);
    for (SimTime skew : config_.skews) {
      SSKEL_REQUIRE(skew >= 0 && skew < config_.round_duration);
    }
    for (std::size_t i = 0; i < n; ++i) {
      SSKEL_REQUIRE(processes_[i] != nullptr);
      SSKEL_REQUIRE(processes_[i]->id() == static_cast<ProcId>(i));
    }
    finalized_round_.assign(n, 0);

    // Bootstrap: every process starts round 1 at skew_p.
    for (ProcId p = 0; p < this->n(); ++p) {
      queue_.schedule(skew(p), [this, p] { start_round(p, 1); });
    }
  }

  [[nodiscard]] ProcId n() const override {
    return static_cast<ProcId>(processes_.size());
  }

  [[nodiscard]] Process& process(ProcId p) override {
    return *processes_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] const Process& process(ProcId p) const override {
    return *processes_[static_cast<std::size_t>(p)];
  }

  [[nodiscard]] SimTime now() const { return queue_.now(); }

  [[nodiscard]] std::int64_t late_messages() const { return late_; }
  [[nodiscard]] std::int64_t lost_messages() const { return lost_; }
  /// Messages that arrived on time by now(): each is counted by its
  /// own delivery event.
  [[nodiscard]] std::int64_t delivered_messages() const { return delivered_; }

  /// Installs a capture sink; same contract as NetRoundDriver's.
  void set_trace_sink(NetTraceSink* sink, TraceEncoder encoder = nullptr) {
    SSKEL_REQUIRE(derived_rounds_ == 0);
    sink_ = sink;
    trace_encoder_ = std::move(encoder);
  }

  [[nodiscard]] TraceSource trace_source() const {
    return TraceSource::kNetEventQueue;
  }

  [[nodiscard]] Round rounds_completed() const override {
    return derived_rounds_;
  }

  /// Runs events until the next round's derived graph completes.
  const Digraph& step() override {
    const Round target = derived_rounds_ + 1;
    while (derived_rounds_ < target) {
      const bool progressed = queue_.step();
      SSKEL_ASSERT(progressed);
    }
    return last_graph_;
  }

 private:
  [[nodiscard]] SimTime skew(ProcId p) const {
    return config_.skews[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] SimTime start_time(ProcId p, Round r) const {
    return static_cast<SimTime>(r - 1) * config_.round_duration + skew(p);
  }
  [[nodiscard]] SimTime deadline(ProcId p, Round r) const {
    return start_time(p, r) + config_.round_duration;
  }

  /// Sender p's round-r payload slot (round parity): overwritten at
  /// start(p, r+2), after every on-time delivery of round r.
  [[nodiscard]] std::uint32_t dcache_slot(ProcId p, Round r) const {
    return static_cast<std::uint32_t>(
        2 * static_cast<std::size_t>(p) +
        (static_cast<std::size_t>(r) & 1U));
  }

  /// On-time deposit into (to, r)'s inbox, keyed by sender: a value
  /// copy in the oracle's own per-(receiver, round parity) storage.
  void deposit(ProcId from, ProcId to, Round r, const Msg& msg) {
    RoundInboxSlot<Msg>& slot = inboxes_.acquire(to, r);
    const auto n_procs = static_cast<std::size_t>(n());
    Msg& copy = copies_[(2 * static_cast<std::size_t>(to) +
                         (static_cast<std::size_t>(r) & 1U)) *
                            n_procs +
                        static_cast<std::size_t>(from)];
    copy = msg;
    slot.senders.insert(from);
    slot.messages[static_cast<std::size_t>(from)] = &copy;
    account_delivery(r, msg);
  }

  /// Round boundary for p: broadcast round r (state is already the
  /// beginning-of-round-r state), schedule one event per message and
  /// the round's close.
  void start_round(ProcId p, Round r) {
    const std::uint32_t slot = dcache_slot(p, r);
    processes_[static_cast<std::size_t>(p)]->send_into(r, dcache_[slot]);
    const Msg& msg = dcache_[slot];

    if (sink_ != nullptr && trace_encoder_) {
      encode_scratch_.clear();
      trace_encoder_(msg, encode_scratch_);
      sink_->on_broadcast(r, p, encode_scratch_);
    }

    // Self-delivery is immediate and always on time (not counted in
    // delivered_, matching the network-accounting convention).
    deposit(p, p, r, msg);

    const SimTime send_time = queue_.now();
    for (ProcId q = 0; q < n(); ++q) {
      if (q == p) continue;
      // Slack for on-time delivery on this pair, from (*).
      const SimTime slack =
          config_.round_duration + skew(q) - skew(p);
      const SimTime delay = sample_delay(links_.at(p, q), slack, rng_);
      if (delay == kLost) {
        ++lost_;
        if (sink_ != nullptr) {
          sink_->on_delivery(DeliveryKind::kDropped, r, p, q, send_time);
        }
        continue;
      }
      const SimTime arrival = send_time + delay;
      queue_.schedule(arrival, [this, p, q, r] {
        deliver(/*from=*/p, /*to=*/q, r);
      });
    }
    queue_.schedule(deadline(p, r), [this, p, r] { close_round(p, r); });
  }

  /// One scheduled event per delivery.
  void deliver(ProcId from, ProcId to, Round r) {
    if (queue_.now() > deadline(to, r)) {
      ++late_;  // communication closure: the round already ended
      if (sink_ != nullptr) {
        sink_->on_delivery(DeliveryKind::kLate, r, from, to, queue_.now());
      }
      return;
    }
    ++delivered_;
    // Arrival exactly at the deadline after the close already ran: the
    // deposit lands in a dead inbox (counted, never consumed).
    if (sink_ != nullptr) {
      const bool dead =
          finalized_round_[static_cast<std::size_t>(to)] >= r;
      sink_->on_delivery(
          dead ? DeliveryKind::kTieDiscard : DeliveryKind::kOnTime, r, from,
          to, queue_.now());
    }
    deposit(from, to, r, dcache_[dcache_slot(from, r)]);
  }

  void close_round(ProcId p, Round r) {
    if (sink_ != nullptr) sink_->on_close(r, p, queue_.now());
    RoundInboxSlot<Msg>& slot = inboxes_.acquire(p, r);
    const Inbox<Msg> view(slot.senders, slot.messages);
    processes_[static_cast<std::size_t>(p)]->transition(r, view);
    finalized_round_[static_cast<std::size_t>(p)] = r;

    // The derived row lands after the transition, so observers see a
    // consistent end-of-round cut.
    derived_row(p, r, slot.senders);

    // The close of round r is the start of round r + 1.
    start_round(p, r + 1);
  }

  struct PendingRound {
    Round round = 0;
    Digraph graph;
    ProcId rows = 0;
    std::int64_t bytes = 0;
    std::int64_t max_message_bytes = 0;
  };

  PendingRound& pending_for(Round r) {
    for (PendingRound& pg : pending_rounds_) {
      if (pg.round == r) return pg;
    }
    PendingRound rec;
    rec.round = r;
    rec.graph = Digraph(n());
    pending_rounds_.push_back(std::move(rec));
    return pending_rounds_.back();
  }

  /// Byte accounting for one on-time delivery (sizer installed only).
  void account_delivery(Round r, const Msg& msg) {
    if (!this->sizer_) return;
    const std::int64_t bytes = this->sizer_(msg);
    PendingRound& rec = pending_for(r);
    rec.bytes += bytes;
    rec.max_message_bytes = std::max(rec.max_message_bytes, bytes);
  }

  /// Collects per-process rows into whole derived graphs; once a
  /// round's last row lands, records the round in the trace and fires
  /// the observer bus. Rounds complete in order because skews stay
  /// below D.
  void derived_row(ProcId p, Round r, const ProcSet& senders) {
    PendingRound& rec = pending_for(r);
    for (ProcId q : senders) rec.graph.add_edge(q, p);
    if (++rec.rows == n()) {
      RoundStats stats;
      stats.round = r;
      stats.messages_delivered = rec.graph.edge_count();
      stats.bytes_delivered = rec.bytes;
      stats.max_message_bytes = rec.max_message_bytes;
      this->trace_.record(stats);
      this->bus_.notify(r, rec.graph);
      last_graph_ = std::move(rec.graph);
      ++derived_rounds_;
      std::erase_if(pending_rounds_,
                    [r](const PendingRound& pg) { return pg.round == r; });
    }
  }

  NetConfig config_;
  LinkMatrix links_;
  std::vector<std::unique_ptr<Process>> processes_;
  Rng rng_;
  EventQueue queue_;
  InboxBuffer<Msg> inboxes_;
  /// Payloads: 2 slots per sender (round parity).
  std::vector<Msg> dcache_;
  /// Delivered copies: n per (receiver, round parity), by sender; the
  /// inbox slots point here.
  std::vector<Msg> copies_;
  std::vector<Round> finalized_round_;
  std::vector<PendingRound> pending_rounds_;
  Digraph last_graph_;
  Round derived_rounds_ = 0;
  std::int64_t late_ = 0;
  std::int64_t lost_ = 0;
  std::int64_t delivered_ = 0;
  NetTraceSink* sink_ = nullptr;
  TraceEncoder trace_encoder_;
  std::vector<std::uint8_t> encode_scratch_;
};

}  // namespace sskel::oracles
