// NetRoundDriver: the communication-closed round abstraction,
// implemented on a simulated partially synchronous network — the
// network-backed RoundEngine.
//
// This is the "messaging boilerplate" beneath the paper's model. Each
// process p has a local clock offset skew_p and a round duration D:
// it starts round r at  start_p(r) = (r-1)*D + skew_p,  immediately
// broadcasts its round-r message (after applying the round-(r-1)
// transition), and closes the round at  start_p(r+1) = start_p(r) + D,
// consuming exactly the round-r messages that arrived by then. A
// message from q traveling d microseconds is on time for p iff
//
//     skew_q + d <= skew_p + D                       (*)
//
// so the *derived* communication graph of round r contains edge
// (q -> p) iff (*) held for that message — asynchrony (slow links,
// skewed clocks) and failures (drops) become missing edges and nothing
// else, which is precisely the paper's unified model. Late messages
// are discarded (communication closure) and counted.
//
// Message plane (DESIGN.md §12). Timeliness is *analytic*: the
// driver samples a message's delay when it is sent and evaluates (*)
// against the receiver's deadline there, so no per-message event,
// closure, or allocation exists on the path. The payload is written
// once into a shared dcache slot keyed by (sender, round parity), and
// an on-time message is deposited by reference into the recipient's
// round-r inbox at the send instant: the inbox stores a pointer to the
// dcache slot, never a copy. That is safe because start(p, r) falls
// after close(q, r-2) and before deadline(q, r) for every recipient q,
// and sender p's round-r slot is rewritten only at start(p, r+2), which
// follows every deadline(q, r) — both because skews stay below D. The
// message's count waits for its arrival instant (delivered_messages()).
//
// Late arrivals are not timers either. A late message records the
// (arrival, seq) key its timer event would have had, and
// late_messages() counts the keys that precede the last executed
// close; each completed round settles them into a running total. The
// round closes run off a precomputed calendar, so an untraced run's
// event queue holds only the n bootstrap starts.
//
// The specification of this plane is the event-queue oracle
// (tests/oracles/event_queue_driver.hpp): the same synchronizer with
// one scheduled event per delivery. The two consume the RNG
// identically and produce bit-identical reports: inbox deposits
// commute (keyed by sender), byte accounting is a sum/max, and the one
// observable tie — arrival exactly at the deadline while the
// receiver's close event ordered first — is reproduced analytically
// (close_precedes_delivery_at_tie).
//
// As a RoundEngine, the driver surfaces each derived graph through
// step() and the shared observer bus, and feeds the shared RunTrace
// (message counts, plus encoded bytes when a sizer is installed) — so
// the whole upper stack, Algorithm 1 through KSetRunner, runs
// unchanged on top of the network substrate, and NetConfig (skew,
// latency distributions, drop rates) becomes a first-class adversary.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "net/event_queue.hpp"
#include "net/link.hpp"
#include "rounds/algorithm.hpp"
#include "rounds/engine.hpp"
#include "rounds/inbox.hpp"
#include "util/rng.hpp"

namespace sskel {

struct NetConfig {
  /// Round duration D in microseconds (the synchronizer's timeout).
  SimTime round_duration = 1000;
  /// Per-process clock offsets; empty = all zero. Offsets shift the
  /// timeliness condition (*) per link direction.
  std::vector<SimTime> skews;
  /// Seed for all delay sampling.
  std::uint64_t seed = 1;
};

template <typename Msg>
class NetRoundDriver final : public RoundEngine<Msg> {
 public:
  using Process = Algorithm<Msg>;

  NetRoundDriver(NetConfig config, LinkMatrix links,
                 std::vector<std::unique_ptr<Process>> processes)
      : config_(std::move(config)),
        links_(std::move(links)),
        processes_(std::move(processes)),
        rng_(config_.seed),
        inboxes_(static_cast<ProcId>(processes_.size())),
        dcache_(2 * processes_.size()) {
    const std::size_t n = processes_.size();
    SSKEL_REQUIRE(n > 0);
    SSKEL_REQUIRE(links_.n() == static_cast<ProcId>(n));
    SSKEL_REQUIRE(config_.round_duration > 0);
    if (config_.skews.empty()) config_.skews.assign(n, 0);
    SSKEL_REQUIRE(config_.skews.size() == n);
    for (SimTime skew : config_.skews) {
      // A skew beyond the round duration would let rounds overlap by
      // more than one boundary; keep the synchronizer's invariant.
      SSKEL_REQUIRE(skew >= 0 && skew < config_.round_duration);
    }
    for (std::size_t i = 0; i < n; ++i) {
      SSKEL_REQUIRE(processes_[i] != nullptr);
      SSKEL_REQUIRE(processes_[i]->id() == static_cast<ProcId>(i));
    }
    use_rows64_ = n <= 64;

    // Close calendar: rounds close in one fixed per-round order — by
    // deadline, i.e. by skew, FIFO (= bootstrap = id) on ties — so the
    // driver ticks closes off this precomputed cycle instead of paying
    // the event heap for its only periodic timer.
    close_order_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      close_order_[i] = static_cast<ProcId>(i);
    }
    std::stable_sort(close_order_.begin(), close_order_.end(),
                     [this](ProcId a, ProcId b) { return skew(a) < skew(b); });
    close_time_.assign(n, 0);
    close_seq_.assign(n, 0);
    close_round_.assign(n, 0);

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

  /// Number of round-tagged messages that arrived after their deadline
  /// and were discarded (the communication-closure drop path), as of
  /// the last executed close: a late message counts once the (time,
  /// seq) key of its arrival precedes that close's key, exactly when
  /// the event-queue oracle's delivery event would have run.
  [[nodiscard]] std::int64_t late_messages() const {
    std::int64_t total = late_;
    for (const LateKey& key : late_keys_) {
      if (before_last_close(key)) ++total;
    }
    return total;
  }
  [[nodiscard]] std::int64_t lost_messages() const { return lost_; }

  /// Messages that arrived on time, *as of the current cut*. Every
  /// on-time message is deposited when it is sent, ahead of its
  /// arrival, and counted as a FutureCount until a round completion
  /// settles it. The accessor restores arrival-time semantics
  /// analytically: an on-time message counts iff its arrival precedes
  /// now(), or lands exactly on it while belonging to the
  /// just-completed round (the event-queue seq-order analysis of the
  /// deadline tie — same-time next-round deliveries are scheduled
  /// after the cut's close event and have not executed there).
  [[nodiscard]] std::int64_t delivered_messages() const {
    std::int64_t total = delivered_;
    const SimTime cut = queue_.now();
    for (const FutureCount& fc : future_counts_) {
      if (fc.arrival < cut ||
          (fc.arrival == cut && fc.round == derived_rounds_)) {
        ++total;
      }
    }
    return total;
  }

  /// Always 0: deposits go straight into the inboxes, so there is no
  /// ring whose credits could run out. Kept because callers fold it
  /// into reports, checkpoints and benchmark digests.
  [[nodiscard]] std::int64_t credit_stalls() const { return 0; }

  /// Optional wire encoder for trace capture: writes `msg`'s encoded
  /// bytes into the scratch vector (cleared by the driver first).
  using TraceEncoder = std::function<void(const Msg&, std::vector<std::uint8_t>&)>;

  /// Installs a capture sink for the delivery/close schedule (null
  /// detaches). Must be called before the first step(). With a sink
  /// installed the driver additionally schedules one capture event
  /// per on-time, tie or late message at its arrival instant —
  /// matching the event-queue oracle's per-delivery events one for one
  /// — so the two captures carry identical delivery/close orderings
  /// and identical event-queue sequence numbers. A late message's key
  /// then takes the seq of its capture event. Tracing is not the hot
  /// path; the zero-event delivery property holds whenever no sink is
  /// attached. When `encoder` is provided the sink also receives every
  /// broadcast's encoded payload.
  void set_trace_sink(NetTraceSink* sink, TraceEncoder encoder = nullptr) {
    SSKEL_REQUIRE(derived_rounds_ == 0);
    sink_ = sink;
    trace_encoder_ = std::move(encoder);
  }

  /// The TraceSource tag of this driver's captures.
  [[nodiscard]] TraceSource trace_source() const {
    return TraceSource::kNetRing;
  }

  /// Rounds whose derived graph is complete (every process closed the
  /// round). Rounds complete in order because skews stay below D.
  [[nodiscard]] Round rounds_completed() const override {
    return derived_rounds_;
  }

  /// Pumps the event queue until the next round's derived graph
  /// completes; returns that graph.
  const Digraph& step() override {
    const Round target = derived_rounds_ + 1;
    while (derived_rounds_ < target) {
      const bool progressed = pump();
      SSKEL_ASSERT(progressed);
    }
    return last_graph_;
  }

  /// Runs the network until every process has finalized `rounds`
  /// rounds (absolute, unlike run()'s relative count).
  void run_rounds(Round rounds) {
    SSKEL_REQUIRE(rounds >= 0);
    while (rounds_completed() < rounds) step();
  }

 private:
  /// Runs the earliest pending timer: the event-queue head or the
  /// next calendar close — whichever's (time, seq) key is smaller.
  /// Calendar closes carry seqs drawn from the queue at registration,
  /// so the FIFO tie-break is exactly the one the heap would have
  /// applied had the close been scheduled.
  bool pump() {
    const ProcId p = close_order_[next_close_];
    const std::size_t pi = static_cast<std::size_t>(p);
    if (close_round_[pi] != 0) {  // calendar armed (bootstrap done)
      SimTime head_time = 0;
      std::uint64_t head_seq = 0;
      const bool queued = queue_.peek_key(head_time, head_seq);
      const SimTime due = close_time_[pi];
      if (!queued || due < head_time ||
          (due == head_time && close_seq_[pi] < head_seq)) {
        queue_.advance_now(due);
        last_close_time_ = due;
        last_close_seq_ = close_seq_[pi];
        const Round r = close_round_[pi];
        next_close_ = (next_close_ + 1) % close_order_.size();
        close_round(p, r);
        return true;
      }
    }
    return queue_.step();
  }

  [[nodiscard]] SimTime skew(ProcId p) const {
    return config_.skews[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] SimTime start_time(ProcId p, Round r) const {
    return static_cast<SimTime>(r - 1) * config_.round_duration + skew(p);
  }
  [[nodiscard]] SimTime deadline(ProcId p, Round r) const {
    return start_time(p, r) + config_.round_duration;
  }

  /// Shared dcache slot for sender p's round-r broadcast. Two slots
  /// per sender (round parity) suffice: the slot for round r is
  /// overwritten at start(p, r+2), which strictly follows every
  /// consumption of round r (deadline(q, r) < start(p, r+2) because
  /// skews stay below D). Inboxes hold pointers into these slots, so
  /// this bound is what keeps every deposit alive until its close.
  [[nodiscard]] std::uint32_t dcache_slot(ProcId p, Round r) const {
    return static_cast<std::uint32_t>(
        2 * static_cast<std::size_t>(p) +
        (static_cast<std::size_t>(r) & 1U));
  }

  /// Event-queue seq order for the one observable tie: a message
  /// arriving exactly at the receiver's deadline races the receiver's
  /// close event. In the event-queue oracle both land at the same
  /// timestamp and FIFO seq decides; seqs follow scheduling order,
  /// which follows the start-event order of the two processes —
  /// (skew, id) lexicographic. The driver reproduces the verdict
  /// analytically.
  [[nodiscard]] bool close_precedes_delivery_at_tie(ProcId from,
                                                    ProcId to) const {
    if (skew(from) != skew(to)) return skew(from) > skew(to);
    return from > to;
  }

  /// A late message not yet settled into late_: the (time, seq) key
  /// its timer event would have had.
  struct LateKey {
    SimTime arrival = 0;
    std::uint64_t seq = 0;
  };

  /// The event-queue order of a late arrival against the last executed
  /// close: true iff its timer event would already have run.
  [[nodiscard]] bool before_last_close(const LateKey& key) const {
    return key.arrival < last_close_time_ ||
           (key.arrival == last_close_time_ && key.seq < last_close_seq_);
  }

  /// Round boundary for p: broadcast round r (state is already the
  /// beginning-of-round-r state) and schedule the round's close.
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
    RoundInboxSlot<Msg>& own = inboxes_.acquire(p, r);
    own.senders.insert(p);
    own.messages[static_cast<std::size_t>(p)] = &msg;
    account_delivery(r, msg);

    // now() is loop-invariant (schedule/take_seq never move the
    // clock); hoist it past the deposit stores.
    const SimTime send_time = queue_.now();
    for (ProcId q = 0; q < n(); ++q) {
      if (q == p) continue;
      // Slack for on-time delivery on this pair, from (*).
      const SimTime slack =
          config_.round_duration + skew(q) - skew(p);
      const SimTime delay = sample_delay(links_.at(p, q), slack, rng_);
      if (delay == kLost) {
        ++lost_;
        // The oracle learns of a drop at the send instant too; record
        // it there so captures agree.
        if (sink_ != nullptr) {
          sink_->on_delivery(DeliveryKind::kDropped, r, p, q, send_time);
        }
        continue;
      }
      const SimTime arrival = send_time + delay;
      const SimTime due = deadline(q, r);
      if (arrival > due) {
        // Late: deposits nothing, and schedules nothing unless a
        // capture needs the event. Its (arrival, seq) key is the one
        // the oracle's delivery event gets, so late_messages() applies
        // the oracle's counting cutoff exactly — a late arrival past
        // the run's final close stays uncounted there too.
        const std::uint64_t seq =
            sink_ == nullptr
                ? queue_.take_seq()
                : queue_.schedule(arrival, [this, p, q, r] {
                    sink_->on_delivery(DeliveryKind::kLate, r, p, q,
                                       queue_.now());
                  });
        late_keys_.push_back(LateKey{arrival, seq});
        continue;
      }
      // On time: counted and byte-accounted now, the count waiting for
      // its arrival (delivered_messages()). At a deadline tie the
      // event-queue oracle runs the close first and the delivery into
      // a dead inbox right after, so a tie the close wins deposits
      // nothing; every other on-time message lands in (q, r)'s inbox
      // now, which is still open (see the header comment).
      const bool tie_discard =
          arrival == due && close_precedes_delivery_at_tie(p, q);
      if (!tie_discard) {
        RoundInboxSlot<Msg>& inbox = inboxes_.acquire(q, r);
        inbox.senders.insert(p);
        inbox.messages[static_cast<std::size_t>(p)] = &msg;
      }
      future_counts_.push_back(FutureCount{arrival, r});
      account_delivery(r, msg);
      if (sink_ != nullptr) {
        schedule_trace_delivery(p, q, r, arrival, tie_discard);
      }
    }

    // Register the close on the calendar (its seq keeps the FIFO
    // interleave with the late keys and capture events drawn above).
    const std::size_t pi = static_cast<std::size_t>(p);
    close_time_[pi] = deadline(p, r);
    close_seq_[pi] = queue_.take_seq();
    close_round_[pi] = r;
  }

  /// Sink attached: schedules the no-op trace event that stands in
  /// for the event-queue oracle's delivery event at the same
  /// (time, seq) slot, keeping the two captures and sequence streams
  /// aligned (see set_trace_sink).
  void schedule_trace_delivery(ProcId from, ProcId to, Round r,
                               SimTime arrival, bool tie_discard) {
    queue_.schedule(arrival, [this, from, to, r, tie_discard] {
      sink_->on_delivery(
          tie_discard ? DeliveryKind::kTieDiscard : DeliveryKind::kOnTime, r,
          from, to, queue_.now());
    });
  }

  void close_round(ProcId p, Round r) {
    if (sink_ != nullptr) sink_->on_close(r, p, queue_.now());
    RoundInboxSlot<Msg>& slot = inboxes_.acquire(p, r);
    const Inbox<Msg> view(slot.senders, slot.messages);
    processes_[static_cast<std::size_t>(p)]->transition(r, view);

    // Record the derived communication-graph row *after* the
    // transition: when the last row of round r lands, every process is
    // in its end-of-round-r state, so observers (skeleton trackers,
    // lemma monitors) see a consistent cut.
    derived_row(p, r, slot.senders);

    // The close of round r is the start of round r + 1.
    start_round(p, r + 1);
  }

  struct PendingRound {
    Round round = 0;
    Digraph graph;
    /// n <= 64 only: staged in-rows (bit q of word p = edge q -> p),
    /// landed into `graph` in one transpose when the round completes.
    std::vector<std::uint64_t> in_words;
    ProcId rows = 0;
    std::int64_t bytes = 0;
    std::int64_t max_message_bytes = 0;
  };

  PendingRound& pending_for(Round r) {
    for (PendingRound& pg : pending_rounds_) {
      if (pg.round == r) return pg;
    }
    // Recycle a retired record when one is parked (derived_row returns
    // them reset): a fresh Digraph(n) heap-allocates 2n rows, which
    // would be the only per-round allocation left on the hot path.
    PendingRound rec;
    if (!pending_pool_.empty()) {
      rec = std::move(pending_pool_.back());
      pending_pool_.pop_back();
    } else {
      rec.graph = Digraph(n());
      if (use_rows64_) rec.in_words.assign(static_cast<std::size_t>(n()), 0);
    }
    rec.round = r;
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
  /// the observer bus. Rounds complete in order: the last close of
  /// round r (at r*D + max skew) precedes the first close of round
  /// r+1 (at (r+1)*D + min skew) because skews are constrained below
  /// D.
  void derived_row(ProcId p, Round r, const ProcSet& senders) {
    PendingRound& rec = pending_for(r);
    if (use_rows64_) {
      // Stage the row as one packed word; the whole round's edge set
      // lands below via a single 64x64 transpose instead of n
      // scattered out-row inserts per close.
      rec.in_words[static_cast<std::size_t>(p)] = senders.word_at(0);
    } else {
      rec.graph.add_in_edges(p, senders);
    }
    if (++rec.rows == n()) {
      if (use_rows64_) rec.graph.or_in_rows64(rec.in_words.data());
      RoundStats stats;
      stats.round = r;
      stats.messages_delivered = rec.graph.edge_count();
      stats.bytes_delivered = rec.bytes;
      stats.max_message_bytes = rec.max_message_bytes;
      this->trace_.record(stats);
      this->bus_.notify(r, rec.graph);
      Digraph retired = std::exchange(last_graph_, std::move(rec.graph));
      if (retired.n() == n()) {
        retired.reset();
        PendingRound recycled;
        recycled.graph = std::move(retired);
        recycled.in_words = std::move(rec.in_words);
        std::fill(recycled.in_words.begin(), recycled.in_words.end(), 0);
        pending_pool_.push_back(std::move(recycled));
      }
      ++derived_rounds_;
      std::erase_if(pending_rounds_,
                    [r](const PendingRound& pg) { return pg.round == r; });
      // Settle the late and on-time arrivals this cut has passed.
      std::erase_if(late_keys_, [this](const LateKey& key) {
        if (!before_last_close(key)) return false;
        ++late_;
        return true;
      });
      const SimTime now = queue_.now();
      std::erase_if(future_counts_, [this, now](const FutureCount& fc) {
        if (fc.arrival >= now) return false;
        ++delivered_;
        return true;
      });
    }
  }

  /// An on-time message not yet settled into delivered_: its arrival
  /// instant and round, for delivered_messages()'s tie rule.
  struct FutureCount {
    SimTime arrival = 0;
    Round round = 0;
  };

  NetConfig config_;
  LinkMatrix links_;
  std::vector<std::unique_ptr<Process>> processes_;
  Rng rng_;
  EventQueue queue_;
  InboxBuffer<Msg> inboxes_;
  /// Shared payload dcache: 2 slots per sender (round parity).
  std::vector<Msg> dcache_;
  /// Close calendar: the fixed per-round close order and
  /// each process's pending close (absolute time, tie-break seq,
  /// round; round 0 = not yet armed).
  std::vector<ProcId> close_order_;
  std::vector<SimTime> close_time_;
  std::vector<std::uint64_t> close_seq_;
  std::vector<Round> close_round_;
  std::size_t next_close_ = 0;
  /// (time, seq) key of the last executed close; -1 = none yet.
  SimTime last_close_time_ = -1;
  std::uint64_t last_close_seq_ = 0;
  std::vector<LateKey> late_keys_;
  std::vector<FutureCount> future_counts_;
  std::vector<PendingRound> pending_rounds_;
  /// Retired round records (graph reset, rows re-zeroed), ready for
  /// the next round.
  std::vector<PendingRound> pending_pool_;
  /// n <= 64: derived rows staged as packed words, landed per round
  /// with one transpose (Digraph::or_in_rows64).
  bool use_rows64_ = false;
  Digraph last_graph_;
  Round derived_rounds_ = 0;
  std::int64_t late_ = 0;
  std::int64_t lost_ = 0;
  std::int64_t delivered_ = 0;
  /// Capture hooks (null/empty when not tracing).
  NetTraceSink* sink_ = nullptr;
  TraceEncoder trace_encoder_;
  std::vector<std::uint8_t> encode_scratch_;
};

}  // namespace sskel
