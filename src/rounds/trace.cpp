// The framed trace container (DESIGN.md §14).
//
// Encoding trusts its caller (SSKEL_REQUIRE on malformed captures);
// decoding trusts nothing — captures travel as files, CI artifacts and
// fuzz corpora, so every field is bounds- and range-checked against
// the bytes that remain and rejection surfaces as a DecodeError, never
// as an abort, OOM or out-of-bounds access.
#include "rounds/trace.hpp"

#include <limits>

#include "util/assert.hpp"
#include "util/varint.hpp"

namespace sskel {

namespace {

constexpr std::uint8_t kMagic[4] = {'S', 'S', 'K', 'T'};
constexpr std::uint64_t kVersion = 1;

constexpr std::uint64_t kMaxRound =
    static_cast<std::uint64_t>(std::numeric_limits<Round>::max());
constexpr std::uint64_t kMaxTime =
    static_cast<std::uint64_t>(std::numeric_limits<SimTime>::max());
constexpr std::uint64_t kMaxStat =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());

/// Appends one frame: type byte, varint payload length, payload.
void put_frame(std::vector<std::uint8_t>& out, TraceFrame type,
               const std::vector<std::uint8_t>& payload) {
  out.push_back(static_cast<std::uint8_t>(type));
  put_varint(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
}

[[nodiscard]] bool read_proc(ByteReader& r, ProcId n, ProcId& out,
                             const char* field) {
  std::uint64_t v = 0;
  if (!r.read_varint_max(v, static_cast<std::uint64_t>(n) - 1, field)) {
    return false;
  }
  out = static_cast<ProcId>(v);
  return true;
}

[[nodiscard]] bool read_round(ByteReader& r, Round& out, const char* field) {
  std::uint64_t v = 0;
  if (!r.read_varint_max(v, kMaxRound, field)) return false;
  if (v == 0) return r.fail(DecodeStatus::kValueOutOfRange, field);
  out = static_cast<Round>(v);
  return true;
}

[[nodiscard]] bool read_time(ByteReader& r, SimTime& out, const char* field) {
  std::uint64_t v = 0;
  if (!r.read_varint_max(v, kMaxTime, field)) return false;
  out = static_cast<SimTime>(v);
  return true;
}

// --- kGraph bodies --------------------------------------------------------
//
// One graph is a node bitmap followed by n out-row bitmaps, each
// ceil(n/8) bytes, bit p of byte p/8 standing for process p. n itself
// comes from the header frame.

void encode_bitmap(std::vector<std::uint8_t>& out, const ProcSet& set) {
  const std::size_t bytes = (static_cast<std::size_t>(set.universe()) + 7) / 8;
  std::vector<std::uint8_t> bitmap(bytes, 0);
  for (ProcId p : set) {
    bitmap[static_cast<std::size_t>(p) / 8] |=
        static_cast<std::uint8_t>(1u << (static_cast<unsigned>(p) % 8));
  }
  out.insert(out.end(), bitmap.begin(), bitmap.end());
}

/// Bounds-checked bitmap read. The fixed-width layout means padding
/// bits (indices >= n in the last byte) must be zero, or two byte
/// strings would decode to the same set.
[[nodiscard]] bool decode_bitmap(ByteReader& reader, ProcId n, ProcSet& set,
                                 const char* field) {
  const std::size_t bytes = (static_cast<std::size_t>(n) + 7) / 8;
  // Expressed against remaining() — a `pos + bytes` sum can wrap for
  // the huge n a hostile header smuggles in.
  if (!reader.require_bytes(bytes, field)) return false;
  const std::uint8_t* data = reader.cursor();
  const unsigned tail_bits = static_cast<unsigned>(n) % 8;
  if (tail_bits != 0 &&
      (data[bytes - 1] & static_cast<std::uint8_t>(0xffu << tail_bits))) {
    return reader.fail(DecodeStatus::kValueOutOfRange, field);
  }
  set = ProcSet(n);
  for (ProcId p = 0; p < n; ++p) {
    if (data[static_cast<std::size_t>(p) / 8] &
        (1u << (static_cast<unsigned>(p) % 8))) {
      set.insert(p);
    }
  }
  reader.skip(bytes);
  return true;
}

void encode_graph_body(std::vector<std::uint8_t>& out, const Digraph& g) {
  encode_bitmap(out, g.nodes());
  for (ProcId q = 0; q < g.n(); ++q) {
    encode_bitmap(out, g.out_neighbors(q));
  }
}

[[nodiscard]] bool decode_graph_body(ByteReader& reader, ProcId n,
                                     Digraph& out) {
  ProcSet nodes(n);
  if (!decode_bitmap(reader, n, nodes, "node bitmap")) return false;
  Digraph g(n);
  // Restrict node presence first, then add edges; a row referencing a
  // node outside the bitmap (Digraph::add_edge would silently re-add
  // it) is hostile input, not a graph.
  g = g.induced(nodes);
  ProcSet row(n);
  for (ProcId q = 0; q < n; ++q) {
    if (!decode_bitmap(reader, n, row, "out-row bitmap")) return false;
    if (!row.is_subset_of(nodes) || (!row.empty() && !nodes.contains(q))) {
      return reader.fail(DecodeStatus::kInvalidEdge, "out-row bitmap");
    }
    for (ProcId p : row) g.add_edge(q, p);
  }
  out = std::move(g);
  return true;
}

}  // namespace

std::vector<std::uint8_t> encode_trace(const RunCapture& c) {
  SSKEL_REQUIRE(c.header.n > 0);
  SSKEL_REQUIRE(c.header.round_duration >= 0);
  std::vector<std::uint8_t> out(kMagic, kMagic + 4);
  put_varint(out, kVersion);

  std::vector<std::uint8_t> payload;
  put_varint(payload, static_cast<std::uint64_t>(c.header.n));
  put_varint(payload, static_cast<std::uint64_t>(c.header.source));
  put_varint(payload, c.header.seed);
  put_varint(payload, static_cast<std::uint64_t>(c.header.round_duration));
  put_frame(out, TraceFrame::kHeader, payload);

  for (std::size_t i = 0; i < c.graphs.size(); ++i) {
    SSKEL_REQUIRE(c.graphs[i].n() == c.header.n);
    payload.clear();
    put_varint(payload, i + 1);
    encode_graph_body(payload, c.graphs[i]);
    put_frame(out, TraceFrame::kGraph, payload);
  }
  for (std::size_t i = 0; i < c.stats.size(); ++i) {
    const RoundStats& s = c.stats[i];
    SSKEL_REQUIRE(s.round == static_cast<Round>(i) + 1);
    SSKEL_REQUIRE(s.messages_delivered >= 0 && s.bytes_delivered >= 0 &&
                  s.max_message_bytes >= 0);
    payload.clear();
    put_varint(payload, i + 1);
    put_varint(payload, static_cast<std::uint64_t>(s.messages_delivered));
    put_varint(payload, static_cast<std::uint64_t>(s.bytes_delivered));
    put_varint(payload, static_cast<std::uint64_t>(s.max_message_bytes));
    put_frame(out, TraceFrame::kRoundStats, payload);
  }
  for (const MessageRecord& m : c.messages) {
    SSKEL_REQUIRE(m.round >= 1);
    SSKEL_REQUIRE(m.sender >= 0 && m.sender < c.header.n);
    payload.clear();
    put_varint(payload, static_cast<std::uint64_t>(m.round));
    put_varint(payload, static_cast<std::uint64_t>(m.sender));
    put_varint(payload, m.payload.size());
    payload.insert(payload.end(), m.payload.begin(), m.payload.end());
    put_frame(out, TraceFrame::kMessage, payload);
  }
  for (const DeliveryRecord& d : c.deliveries) {
    SSKEL_REQUIRE(d.round >= 1);
    SSKEL_REQUIRE(d.from >= 0 && d.from < c.header.n);
    SSKEL_REQUIRE(d.to >= 0 && d.to < c.header.n);
    SSKEL_REQUIRE(d.time >= 0);
    payload.clear();
    put_varint(payload, static_cast<std::uint64_t>(d.round));
    put_varint(payload, static_cast<std::uint64_t>(d.from));
    put_varint(payload, static_cast<std::uint64_t>(d.to));
    put_varint(payload, static_cast<std::uint64_t>(d.kind));
    put_varint(payload, static_cast<std::uint64_t>(d.time));
    put_frame(out, TraceFrame::kDelivery, payload);
  }
  for (const CloseRecord& cl : c.closes) {
    SSKEL_REQUIRE(cl.round >= 1);
    SSKEL_REQUIRE(cl.proc >= 0 && cl.proc < c.header.n);
    SSKEL_REQUIRE(cl.time >= 0);
    payload.clear();
    put_varint(payload, static_cast<std::uint64_t>(cl.round));
    put_varint(payload, static_cast<std::uint64_t>(cl.proc));
    put_varint(payload, static_cast<std::uint64_t>(cl.time));
    put_frame(out, TraceFrame::kClose, payload);
  }
  payload.clear();
  put_frame(out, TraceFrame::kEnd, payload);
  return out;
}

DecodeResult<RunCapture> decode_trace(const std::vector<std::uint8_t>& bytes) {
  ByteReader reader(bytes.data(), bytes.size());
  if (!reader.require_bytes(4, "magic")) return reader.error();
  for (std::size_t i = 0; i < 4; ++i) {
    if (reader.cursor()[i] != kMagic[i]) {
      return DecodeError{DecodeStatus::kBadMagic, reader.pos() + i, "magic"};
    }
  }
  reader.skip(4);
  std::uint64_t version = 0;
  if (!reader.read_varint(version, "version")) return reader.error();
  if (version != kVersion) {
    return DecodeError{DecodeStatus::kBadVersion, reader.pos(), "version"};
  }

  RunCapture c;
  bool have_header = false;
  bool have_end = false;
  while (!reader.at_end()) {
    if (have_end) {
      return DecodeError{DecodeStatus::kTrailingBytes, reader.pos(), "frame"};
    }
    const std::size_t frame_start = reader.pos();
    std::uint8_t type_byte = 0;
    if (!reader.read_u8(type_byte, "frame type")) return reader.error();
    std::uint64_t length = 0;
    if (!reader.read_varint(length, "frame length")) return reader.error();
    if (length > reader.remaining()) {
      return DecodeError{DecodeStatus::kLimitExceeded, frame_start,
                         "frame length"};
    }
    // Parse the payload through a sub-reader confined to the declared
    // length; a frame whose fields consume more or less than `length`
    // is malformed.
    const std::size_t payload_start = reader.pos();
    ByteReader frame(reader.cursor(), static_cast<std::size_t>(length));
    reader.skip(static_cast<std::size_t>(length));
    const auto frame_error = [&](const DecodeError& err) {
      // Re-anchor sub-reader offsets to the whole input.
      return DecodeError{err.status, payload_start + err.offset, err.field};
    };
    const auto type = static_cast<TraceFrame>(type_byte);
    if (type != TraceFrame::kHeader && !have_header) {
      return DecodeError{DecodeStatus::kBadFrame, frame_start, "frame order"};
    }
    switch (type) {
      case TraceFrame::kHeader: {
        if (have_header) {
          return DecodeError{DecodeStatus::kBadFrame, frame_start,
                             "duplicate header"};
        }
        std::uint64_t n_wide = 0;
        if (!frame.read_varint_max(n_wide, kMaxDecodeUniverse, "header n")) {
          return frame_error(frame.error());
        }
        if (n_wide == 0) {
          return frame_error(
              DecodeError{DecodeStatus::kValueOutOfRange, 0, "header n"});
        }
        std::uint64_t source = 0;
        if (!frame.read_varint_max(
                source, static_cast<std::uint64_t>(TraceSource::kNetEventQueue),
                "header source")) {
          return frame_error(frame.error());
        }
        std::uint64_t seed = 0;
        if (!frame.read_varint(seed, "header seed")) {
          return frame_error(frame.error());
        }
        SimTime duration = 0;
        if (!read_time(frame, duration, "header round duration")) {
          return frame_error(frame.error());
        }
        c.header = TraceHeader{static_cast<ProcId>(n_wide),
                               static_cast<TraceSource>(source), seed,
                               duration};
        have_header = true;
        break;
      }
      case TraceFrame::kGraph: {
        Round round = 0;
        if (!read_round(frame, round, "graph round")) {
          return frame_error(frame.error());
        }
        if (round != static_cast<Round>(c.graphs.size()) + 1) {
          return DecodeError{DecodeStatus::kBadFrame, frame_start,
                             "graph round order"};
        }
        Digraph g;
        if (!decode_graph_body(frame, c.header.n, g)) {
          return frame_error(frame.error());
        }
        c.graphs.push_back(std::move(g));
        break;
      }
      case TraceFrame::kRoundStats: {
        Round round = 0;
        if (!read_round(frame, round, "stats round")) {
          return frame_error(frame.error());
        }
        if (round != static_cast<Round>(c.stats.size()) + 1) {
          return DecodeError{DecodeStatus::kBadFrame, frame_start,
                             "stats round order"};
        }
        RoundStats s;
        s.round = round;
        std::uint64_t v = 0;
        if (!frame.read_varint_max(v, kMaxStat, "stats messages")) {
          return frame_error(frame.error());
        }
        s.messages_delivered = static_cast<std::int64_t>(v);
        if (!frame.read_varint_max(v, kMaxStat, "stats bytes")) {
          return frame_error(frame.error());
        }
        s.bytes_delivered = static_cast<std::int64_t>(v);
        if (!frame.read_varint_max(v, kMaxStat, "stats max bytes")) {
          return frame_error(frame.error());
        }
        s.max_message_bytes = static_cast<std::int64_t>(v);
        c.stats.push_back(s);
        break;
      }
      case TraceFrame::kMessage: {
        MessageRecord m;
        if (!read_round(frame, m.round, "message round") ||
            !read_proc(frame, c.header.n, m.sender, "message sender")) {
          return frame_error(frame.error());
        }
        std::uint64_t size = 0;
        if (!frame.read_varint(size, "message size")) {
          return frame_error(frame.error());
        }
        if (size != frame.remaining()) {
          return frame_error(DecodeError{DecodeStatus::kLimitExceeded,
                                         frame.pos(), "message size"});
        }
        m.payload.assign(frame.cursor(), frame.cursor() + size);
        frame.skip(static_cast<std::size_t>(size));
        c.messages.push_back(std::move(m));
        break;
      }
      case TraceFrame::kDelivery: {
        DeliveryRecord d;
        std::uint64_t kind = 0;
        if (!read_round(frame, d.round, "delivery round") ||
            !read_proc(frame, c.header.n, d.from, "delivery from") ||
            !read_proc(frame, c.header.n, d.to, "delivery to") ||
            !frame.read_varint_max(
                kind, static_cast<std::uint64_t>(DeliveryKind::kTieDiscard),
                "delivery kind") ||
            !read_time(frame, d.time, "delivery time")) {
          return frame_error(frame.error());
        }
        d.kind = static_cast<DeliveryKind>(kind);
        c.deliveries.push_back(d);
        break;
      }
      case TraceFrame::kClose: {
        CloseRecord cl;
        if (!read_round(frame, cl.round, "close round") ||
            !read_proc(frame, c.header.n, cl.proc, "close proc") ||
            !read_time(frame, cl.time, "close time")) {
          return frame_error(frame.error());
        }
        c.closes.push_back(cl);
        break;
      }
      case TraceFrame::kEnd: {
        have_end = true;
        break;
      }
      default:
        return DecodeError{DecodeStatus::kBadFrame, frame_start, "frame type"};
    }
    if (!frame.at_end()) {
      return frame_error(DecodeError{DecodeStatus::kTrailingBytes, frame.pos(),
                                     "frame payload"});
    }
  }
  if (!have_header) {
    return DecodeError{DecodeStatus::kBadFrame, reader.pos(), "missing header"};
  }
  if (!have_end) {
    return DecodeError{DecodeStatus::kTruncated, reader.pos(),
                       "missing end frame"};
  }
  return c;
}

}  // namespace sskel
