// Run traces: everything an experiment wants to know about a run —
// plus the framed binary capture format that makes a run shareable.
//
// The paper's runs *are* their communication-graph sequences, so a
// captured trace is a perfect deterministic adversary: any bench
// outlier or CI failure replays bit-exactly by feeding the captured
// graphs back through a ScheduleSource (the prefix, then the last
// graph forever). The capture format here goes beyond graph sequences
// to full run evidence — per-round derived graphs, per-round
// accounting, encoded message bytes, and the delivery/close schedule
// of the network substrate — in a versioned, pcap-like frame stream
// (1-byte type + varint length per frame; see DESIGN.md §14) whose
// decoder treats its input as hostile. It is the one capture format:
// simulator runs and network runs alike are written as SSKT.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "util/decode.hpp"
#include "util/types.hpp"

namespace sskel {

/// Per-round accounting recorded by the simulator.
struct RoundStats {
  Round round = 0;
  /// Edges of G^r (after self-loop closure) = messages delivered.
  std::int64_t messages_delivered = 0;
  /// Sum of encoded sizes (bytes) over delivered messages; 0 unless a
  /// message sizer is installed.
  std::int64_t bytes_delivered = 0;
  /// Largest single encoded message this round (bytes).
  std::int64_t max_message_bytes = 0;

  bool operator==(const RoundStats&) const = default;
};

/// Whole-run accounting. Graph retention is optional because storing
/// every G^r is O(rounds * n^2 / 8) memory.
class RunTrace {
 public:
  void record(RoundStats stats) { per_round_.push_back(stats); }

  /// Forgets all rounds, keeping the vector's capacity (engine reuse
  /// across trials).
  void clear() { per_round_.clear(); }

  [[nodiscard]] const std::vector<RoundStats>& per_round() const {
    return per_round_;
  }

  [[nodiscard]] Round rounds_executed() const {
    return static_cast<Round>(per_round_.size());
  }

  [[nodiscard]] std::int64_t total_messages() const {
    std::int64_t total = 0;
    for (const RoundStats& s : per_round_) total += s.messages_delivered;
    return total;
  }

  [[nodiscard]] std::int64_t total_bytes() const {
    std::int64_t total = 0;
    for (const RoundStats& s : per_round_) total += s.bytes_delivered;
    return total;
  }

  [[nodiscard]] std::int64_t max_message_bytes() const {
    std::int64_t best = 0;
    for (const RoundStats& s : per_round_) {
      best = std::max(best, s.max_message_bytes);
    }
    return best;
  }

 private:
  std::vector<RoundStats> per_round_;
};

// ---------------------------------------------------------------------------
// Framed binary captures (DESIGN.md §14).
//
// Container layout:
//   4 bytes magic "SSKT" | varint version (= 1) | frames... | kEnd
// Frame layout:
//   1 byte type | varint payload length | payload
// The kEnd frame is mandatory and last — a truncated file is
// detectable even when it happens to end on a frame boundary.
// ---------------------------------------------------------------------------

/// Which substrate produced a capture.
enum class TraceSource : std::uint8_t {
  kSimulator = 0,
  kNetRing = 1,
  kNetEventQueue = 2,
};

/// Fate of one point-to-point message on the network substrate.
enum class DeliveryKind : std::uint8_t {
  /// Arrived by the receiver's deadline and was consumed.
  kOnTime = 0,
  /// Arrived after the deadline; discarded (communication closure).
  kLate = 1,
  /// Never arrived (link drop). (Named kDropped, not kLost, to dodge
  /// the net-plane kLost delay sentinel — GCC 12 -Wshadow flags scoped
  /// enumerators against globals.)
  kDropped = 2,
  /// Arrived exactly at the deadline but the close ordered first:
  /// counted and byte-accounted, never consumed (the one observable
  /// (time, seq) tie — see NetRoundDriver).
  kTieDiscard = 3,
};

/// Frame types of the capture container.
enum class TraceFrame : std::uint8_t {
  kHeader = 1,      ///< run parameters; exactly one, first
  kGraph = 2,       ///< one per-round derived graph, rounds 1, 2, ...
  kRoundStats = 3,  ///< per-round accounting, rounds 1, 2, ...
  kMessage = 4,     ///< one broadcast's encoded payload
  kDelivery = 5,    ///< fate of one point-to-point message
  kClose = 6,       ///< one process closing one round
  kEnd = 7,         ///< terminator; exactly one, last
};

struct TraceHeader {
  ProcId n = 0;
  TraceSource source = TraceSource::kSimulator;
  /// Substrate seed (0 for GraphSource-driven runs, which carry their
  /// randomness in the source).
  std::uint64_t seed = 0;
  /// Round duration D of the network substrate; 0 for the simulator.
  SimTime round_duration = 0;

  bool operator==(const TraceHeader&) const = default;
};

/// One broadcast's wire bytes (recorded only when the driver has a
/// message encoder installed; replay does not need them — messages are
/// deterministic functions of state — but bug reports and fuzz seeds
/// do).
struct MessageRecord {
  Round round = 0;
  ProcId sender = 0;
  std::vector<std::uint8_t> payload;

  bool operator==(const MessageRecord&) const = default;
};

struct DeliveryRecord {
  Round round = 0;
  ProcId from = 0;
  ProcId to = 0;
  DeliveryKind kind = DeliveryKind::kOnTime;
  /// Arrival time (send time for kLost).
  SimTime time = 0;

  bool operator==(const DeliveryRecord&) const = default;
};

struct CloseRecord {
  Round round = 0;
  ProcId proc = 0;
  SimTime time = 0;

  bool operator==(const CloseRecord&) const = default;
};

/// Everything a capture holds. `graphs[i]` / `stats[i]` describe round
/// i + 1; message/delivery/close records appear in schedule order and
/// may reference the in-flight round past the last derived graph.
struct RunCapture {
  TraceHeader header;
  std::vector<Digraph> graphs;
  std::vector<RoundStats> stats;
  std::vector<MessageRecord> messages;
  std::vector<DeliveryRecord> deliveries;
  std::vector<CloseRecord> closes;

  bool operator==(const RunCapture&) const = default;
};

/// Serializes a capture into the framed container. Requires a valid
/// capture (n > 0, graphs over the header's universe, nonnegative
/// times/stats) — the encoder trusts its caller; only decoding is
/// defensive.
[[nodiscard]] std::vector<std::uint8_t> encode_trace(const RunCapture& c);

/// Inverse of encode_trace, hardened for untrusted bytes: strict
/// varints, every frame length validated against the remaining input,
/// graph/stat rounds required consecutive from 1, all ids/kinds/times
/// range-checked, no allocation before the bytes that would justify it
/// are known to exist. Accepted inputs satisfy
/// decode_trace(encode_trace(c)) == c.
[[nodiscard]] DecodeResult<RunCapture> decode_trace(
    const std::vector<std::uint8_t>& bytes);

/// Receiver of the network driver's schedule events (defined here, not
/// in net/, so the recorder below works without a net dependency; the
/// driver calls these as the events execute, in deterministic
/// (time, seq) order).
class NetTraceSink {
 public:
  virtual ~NetTraceSink() = default;

  /// Process `sender` broadcast its round-r message; `payload` is the
  /// encoded wire form (only fired when an encoder is installed).
  virtual void on_broadcast(Round r, ProcId sender,
                            const std::vector<std::uint8_t>& payload) = 0;

  /// Fate of the (from -> to) round-r message.
  virtual void on_delivery(DeliveryKind kind, Round r, ProcId from, ProcId to,
                           SimTime time) = 0;

  /// Process `proc` closed round r at `time`.
  virtual void on_close(Round r, ProcId proc, SimTime time) = 0;
};

/// Accumulates a RunCapture from a live run. Graphs and per-round
/// stats come from the engine (attach() registers an observer; pass
/// the engine's RunTrace to finish()); schedule events come from the
/// driver's NetTraceSink hook when the run is network-backed.
class TraceRecorder final : public NetTraceSink {
 public:
  explicit TraceRecorder(ProcId n,
                         TraceSource source = TraceSource::kSimulator,
                         std::uint64_t seed = 0, SimTime round_duration = 0) {
    capture_.header = TraceHeader{n, source, seed, round_duration};
  }

  /// Registers the per-round graph observer on any RoundEngine.
  template <typename Engine>
  void attach(Engine& engine) {
    engine.add_observer(
        [this](Round r, const Digraph& g) { on_round(r, g); });
  }

  void on_round(Round r, const Digraph& g) {
    SSKEL_REQUIRE(r == static_cast<Round>(capture_.graphs.size()) + 1);
    capture_.graphs.push_back(g);
  }

  void on_broadcast(Round r, ProcId sender,
                    const std::vector<std::uint8_t>& payload) override {
    capture_.messages.push_back(MessageRecord{r, sender, payload});
  }
  void on_delivery(DeliveryKind kind, Round r, ProcId from, ProcId to,
                   SimTime time) override {
    capture_.deliveries.push_back(DeliveryRecord{r, from, to, kind, time});
  }
  void on_close(Round r, ProcId proc, SimTime time) override {
    capture_.closes.push_back(CloseRecord{r, proc, time});
  }

  /// Copies the engine's per-round accounting in and returns the
  /// finished capture (recorder is left empty).
  [[nodiscard]] RunCapture finish(const RunTrace& trace) {
    capture_.stats = trace.per_round();
    return std::exchange(capture_, RunCapture{});
  }

  [[nodiscard]] const RunCapture& capture() const { return capture_; }

 private:
  RunCapture capture_;
};

}  // namespace sskel
