// The framed trace container: canonical round-trips over every ProcSet
// representation tier, record → encode → decode → replay of a live
// run, plus hostile-input sweeps (truncation at every byte boundary,
// single-bit flips, structural frame corruption, and for graph-only run
// captures malformed header and graph bodies) that must end in a
// DecodeError — never an abort, OOM or OOB access.
#include "rounds/trace.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "adversary/random_psrcs.hpp"
#include "kset/runner.hpp"
#include "rounds/graph_source.hpp"
#include "util/proc_set.hpp"
#include "util/rng.hpp"
#include "util/varint.hpp"

namespace sskel {
namespace {

/// A capture exercising every frame type, both payload branches
/// (with/without message bytes) and a graph with an absent node.
RunCapture sample_capture(ProcId n, std::uint64_t seed) {
  Rng rng(seed);
  RunCapture c;
  c.header = TraceHeader{n, TraceSource::kNetRing, seed, 1000};
  for (Round r = 1; r <= 4; ++r) {
    Digraph g(n);
    for (ProcId p = 0; p < n; ++p) g.add_edge(p, p);
    for (int e = 0; e < 3 * n; ++e) {
      const auto q = static_cast<ProcId>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      const auto p = static_cast<ProcId>(
          rng.next_below(static_cast<std::uint64_t>(n)));
      g.add_edge(q, p);
    }
    if (r == 4) g.remove_node(n - 1);
    c.graphs.push_back(g);
    c.stats.push_back(RoundStats{r, static_cast<std::int64_t>(n) * n,
                                 1234 + r, 200 + r});
    for (ProcId p = 0; p < n; ++p) {
      c.messages.push_back(MessageRecord{
          r, p, {static_cast<std::uint8_t>(p), 0xff, 0x00}});
      c.deliveries.push_back(DeliveryRecord{
          r, p, static_cast<ProcId>((p + 1) % n),
          static_cast<DeliveryKind>(p % 4), 1000 * r + p});
      c.closes.push_back(CloseRecord{r, p, 1000 * r + 900 + p});
    }
  }
  // An empty-payload message and an in-flight round past the graphs.
  c.messages.push_back(MessageRecord{5, 0, {}});
  c.deliveries.push_back(
      DeliveryRecord{5, 0, 1, DeliveryKind::kDropped, 5000});
  return c;
}

TEST(TraceCodecTest, RoundTripAllFrameTypes) {
  const RunCapture c = sample_capture(7, 0xABCD);
  const std::vector<std::uint8_t> bytes = encode_trace(c);
  DecodeResult<RunCapture> back = decode_trace(bytes);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value(), c);
  EXPECT_FALSE(back.value().graphs.back().has_node(6));
  // The container is canonical for captures in schedule order.
  EXPECT_EQ(encode_trace(back.value()), bytes);
}

TEST(TraceCodecTest, RoundTripAcrossProcSetTiers) {
  // The graph bitmaps must encode identically whatever representation
  // the ProcSets currently use: dense-only, and tiered with a
  // threshold low enough that n = 40 rows adopt the sparse form.
  const std::size_t saved = ProcSet::tier_threshold_words();
  std::vector<std::uint8_t> dense_bytes;
  {
    ScopedTierPolicy scope(ProcSet::TierPolicy::kDenseOnly);
    dense_bytes = encode_trace(sample_capture(40, 77));
  }
  ProcSet::set_tier_threshold_words(1);
  const std::vector<std::uint8_t> tiered_bytes =
      encode_trace(sample_capture(40, 77));
  DecodeResult<RunCapture> tiered_back = decode_trace(tiered_bytes);
  ProcSet::set_tier_threshold_words(saved);

  EXPECT_EQ(dense_bytes, tiered_bytes);
  ASSERT_TRUE(tiered_back.ok());
  EXPECT_EQ(tiered_back.value(), sample_capture(40, 77));
}

TEST(TraceCodecTest, MinimalCapture) {
  RunCapture c;
  c.header = TraceHeader{1, TraceSource::kSimulator, 0, 0};
  DecodeResult<RunCapture> back = decode_trace(encode_trace(c));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), c);
}

TEST(RecordReplayTest, ReplayedRunReproducesDecisionsExactly) {
  // Record a live run, ship it through the codec, replay the decoded
  // graphs — the reproduce-a-bug workflow. The whole report must come
  // back, not just the decisions.
  RandomPsrcsParams params;
  params.n = 8;
  params.k = 2;
  params.root_components = 2;
  params.stabilization_round = 3;
  RandomPsrcsSource source(17, params);
  KSetRunConfig config;
  config.k = 2;

  RunCapture capture;
  const KSetRunReport live = run_kset_recorded(source, config, 17, capture);
  ASSERT_TRUE(live.all_decided);

  DecodeResult<RunCapture> decoded = decode_trace(encode_trace(capture));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  ScheduleSource replay(decoded.value().graphs);
  const KSetRunReport replayed = run_kset(replay, config);
  EXPECT_EQ(replayed, live);
}

TEST(TraceCodecHostileTest, TruncationAtEveryBoundaryIsGraceful) {
  const std::vector<std::uint8_t> full = encode_trace(sample_capture(5, 3));
  for (std::size_t len = 0; len < full.size(); ++len) {
    const std::vector<std::uint8_t> cut(full.begin(),
                                        full.begin() + static_cast<long>(len));
    DecodeResult<RunCapture> r = decode_trace(cut);
    EXPECT_FALSE(r.ok()) << "prefix of length " << len << " decoded";
  }
}

TEST(TraceCodecHostileTest, SingleBitFlipsNeverCrashAndStayDeterministic) {
  const std::vector<std::uint8_t> full = encode_trace(sample_capture(5, 9));
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutated = full;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      DecodeResult<RunCapture> r = decode_trace(mutated);
      if (!r.ok()) continue;  // graceful rejection is the common case
      // A flip that still decodes (e.g. a seed bit) must land in a
      // stable state: re-encoding and re-decoding is the identity.
      const std::vector<std::uint8_t> re = encode_trace(r.value());
      DecodeResult<RunCapture> again = decode_trace(re);
      ASSERT_TRUE(again.ok());
      EXPECT_EQ(again.value(), r.value())
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(TraceCodecHostileTest, BadMagicAndVersionRejected) {
  std::vector<std::uint8_t> bytes = encode_trace(sample_capture(3, 1));
  bytes[2] = 'X';
  DecodeResult<RunCapture> r = decode_trace(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().status, DecodeStatus::kBadMagic);
  EXPECT_EQ(r.error().offset, 2u);

  bytes = encode_trace(sample_capture(3, 1));
  bytes[4] = 0x63;  // version 99
  r = decode_trace(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().status, DecodeStatus::kBadVersion);

  EXPECT_EQ(decode_trace({}).error().status, DecodeStatus::kTruncated);
}

TEST(TraceCodecHostileTest, StructuralFrameErrorsRejected) {
  const RunCapture c = sample_capture(3, 2);
  const std::vector<std::uint8_t> good = encode_trace(c);

  // Frame length claiming more payload than the input holds.
  {
    std::vector<std::uint8_t> bytes(good.begin(), good.begin() + 5);
    bytes.push_back(static_cast<std::uint8_t>(TraceFrame::kHeader));
    put_varint(bytes, 1u << 20);
    EXPECT_EQ(decode_trace(bytes).error().status,
              DecodeStatus::kLimitExceeded);
  }
  // Unknown frame type.
  {
    std::vector<std::uint8_t> bytes(good.begin(), good.end() - 2);
    bytes.push_back(0x99);
    put_varint(bytes, 0);
    bytes.push_back(static_cast<std::uint8_t>(TraceFrame::kEnd));
    put_varint(bytes, 0);
    EXPECT_EQ(decode_trace(bytes).error().status, DecodeStatus::kBadFrame);
  }
  // First frame is not the header.
  {
    std::vector<std::uint8_t> bytes(good.begin(), good.begin() + 5);
    bytes.push_back(static_cast<std::uint8_t>(TraceFrame::kEnd));
    put_varint(bytes, 0);
    EXPECT_EQ(decode_trace(bytes).error().status, DecodeStatus::kBadFrame);
  }
  // Frames after the end marker.
  {
    std::vector<std::uint8_t> bytes = good;
    bytes.push_back(static_cast<std::uint8_t>(TraceFrame::kEnd));
    put_varint(bytes, 0);
    EXPECT_EQ(decode_trace(bytes).error().status,
              DecodeStatus::kTrailingBytes);
  }
  // Missing end marker (clean frame boundary, still truncated).
  {
    std::vector<std::uint8_t> bytes(good.begin(), good.end() - 2);
    EXPECT_EQ(decode_trace(bytes).error().status, DecodeStatus::kTruncated);
  }
}

TEST(TraceCodecHostileTest, DuplicateHeaderAndRoundOrderRejected) {
  RunCapture c;
  c.header = TraceHeader{4, TraceSource::kNetEventQueue, 5, 800};
  Digraph g(4);
  g.add_self_loops();
  c.graphs = {g, g};
  const std::vector<std::uint8_t> good = encode_trace(c);

  // Duplicate header: replay the header frame right after itself.
  {
    // magic(4) + version(1) + header frame = type(1) + len(1) + payload.
    const std::size_t header_len = static_cast<std::size_t>(good[6]);
    const std::size_t header_end = 7 + header_len;
    std::vector<std::uint8_t> bytes(good.begin(), good.begin() +
                                    static_cast<long>(header_end));
    bytes.insert(bytes.end(), good.begin() + 5,
                 good.begin() + static_cast<long>(header_end));
    bytes.insert(bytes.end(), good.begin() + static_cast<long>(header_end),
                 good.end());
    EXPECT_EQ(decode_trace(bytes).error().status, DecodeStatus::kBadFrame);
  }
  // Graph rounds must be consecutive from 1: drop the first graph
  // frame so round 2 arrives first.
  {
    const std::size_t header_len = static_cast<std::size_t>(good[6]);
    const std::size_t header_end = 7 + header_len;
    const std::size_t g1_len =
        static_cast<std::size_t>(good[header_end + 1]);
    const std::size_t g1_end = header_end + 2 + g1_len;
    std::vector<std::uint8_t> bytes(good.begin(),
                                    good.begin() + static_cast<long>(header_end));
    bytes.insert(bytes.end(), good.begin() + static_cast<long>(g1_end),
                 good.end());
    EXPECT_EQ(decode_trace(bytes).error().status, DecodeStatus::kBadFrame);
  }
}

TEST(TraceCodecHostileTest, MessageSizeMustMatchFrameRemainder) {
  RunCapture c;
  c.header = TraceHeader{2, TraceSource::kSimulator, 0, 0};
  c.messages.push_back(MessageRecord{1, 0, {0xaa, 0xbb}});
  std::vector<std::uint8_t> bytes = encode_trace(c);
  // The message frame payload is [round=1][sender=0][size=2][aa][bb];
  // shrink the declared size so two trailing bytes dangle.
  const std::size_t size_pos = bytes.size() - 5;  // before aa bb + end frame
  ASSERT_EQ(bytes[size_pos], 2u);
  bytes[size_pos] = 1;
  EXPECT_EQ(decode_trace(bytes).error().status, DecodeStatus::kLimitExceeded);
}

// --- run captures ---------------------------------------------------------
//
// A run is its graph sequence, so a capture holding graph frames only
// is the run codec: what `sskel run --record` writes and `sskel replay`
// reads. These pin its round-trip and its graph-body and header checks.

RunCapture run_capture(std::vector<Digraph> graphs) {
  RunCapture c;
  c.header = TraceHeader{graphs.front().n(), TraceSource::kSimulator, 0, 0};
  c.graphs = std::move(graphs);
  return c;
}

DecodeStatus run_status(const std::vector<std::uint8_t>& bytes) {
  DecodeResult<RunCapture> r = decode_trace(bytes);
  return r.ok() ? DecodeStatus::kOk : r.error().status;
}

/// magic | version 1 | header frame {n (raw varint bytes), source 0,
/// seed 0, D 0} | end frame. The n field starts at byte 7.
std::vector<std::uint8_t> header_with_n(
    const std::vector<std::uint8_t>& n_varint) {
  std::vector<std::uint8_t> payload = n_varint;
  payload.insert(payload.end(), {0, 0, 0});
  std::vector<std::uint8_t> bytes = {'S', 'S', 'K', 'T', 1};
  bytes.push_back(static_cast<std::uint8_t>(TraceFrame::kHeader));
  put_varint(bytes, payload.size());
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  bytes.push_back(static_cast<std::uint8_t>(TraceFrame::kEnd));
  put_varint(bytes, 0);
  return bytes;
}

std::vector<std::uint8_t> header_with_n(std::uint64_t n) {
  std::vector<std::uint8_t> varint;
  put_varint(varint, n);
  return header_with_n(varint);
}

/// Decodes a header-only capture and expects `status` at the n field.
void expect_n_field_rejected(const std::vector<std::uint8_t>& bytes,
                             DecodeStatus status) {
  constexpr std::size_t kNField = 7;
  DecodeResult<RunCapture> r = decode_trace(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().status, status);
  EXPECT_EQ(r.error().offset, kNField);
}

/// A one-graph n = 3 run: the graph frame [kGraph][len 5][round 1]
/// [node bitmap][3 out-row bitmaps] starts 9 bytes before the end,
/// followed by the 2-byte end frame.
struct ThreeNodeRun {
  std::vector<std::uint8_t> bytes;
  std::size_t graph_frame = 0;
  std::size_t node_bitmap = 0;
};

ThreeNodeRun three_node_run(const Digraph& g) {
  ThreeNodeRun run;
  run.bytes = encode_trace(run_capture({g}));
  run.graph_frame = run.bytes.size() - 2 - 7;
  run.node_bitmap = run.graph_frame + 3;
  return run;
}

TEST(RunCodecTest, RoundTrip) {
  RandomPsrcsParams params;
  params.n = 11;
  params.k = 3;
  params.root_components = 3;
  params.noise_probability = 0.4;
  RandomPsrcsSource source(9, params);
  std::vector<Digraph> run;
  for (Round r = 1; r <= 8; ++r) run.push_back(source.graph(r));

  const std::vector<std::uint8_t> bytes = encode_trace(run_capture(run));
  DecodeResult<RunCapture> back = decode_trace(bytes);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value().graphs, run);
  // The layout is canonical, so decode inverts encode *and* vice versa.
  EXPECT_EQ(encode_trace(back.value()), bytes);
}

TEST(RunCodecTest, PreservesNodeAbsence) {
  Digraph g(5);
  g.add_edge(0, 1);
  g.remove_node(4);
  DecodeResult<RunCapture> back = decode_trace(encode_trace(run_capture({g})));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().graphs.size(), 1u);
  EXPECT_EQ(back.value().graphs[0], g);
  EXPECT_FALSE(back.value().graphs[0].has_node(4));
}

TEST(RunCodecHostileTest, TrailingGarbageRejected) {
  std::vector<std::uint8_t> bytes = encode_trace(run_capture({Digraph(3)}));
  bytes.push_back(0);
  EXPECT_EQ(run_status(bytes), DecodeStatus::kTrailingBytes);
}

TEST(RunCodecHostileTest, HugeRoundCountRejectedBeforeAllocation) {
  // The number of rounds is the number of graph frames, so no single
  // field claims it; what a hostile input can inflate is a graph
  // frame's length or its round number. Neither may size anything: the
  // length is bounded by the bytes present, and a far-off round is out
  // of order, not a request to pad the run up to it.
  const ThreeNodeRun good = three_node_run(Digraph(3));
  const auto prefix = good.bytes.begin() + static_cast<long>(good.graph_frame);
  ASSERT_EQ(good.bytes[good.graph_frame],
            static_cast<std::uint8_t>(TraceFrame::kGraph));

  std::vector<std::uint8_t> bytes(good.bytes.begin(), prefix);
  bytes.push_back(static_cast<std::uint8_t>(TraceFrame::kGraph));
  put_varint(bytes, std::uint64_t{1} << 40);
  EXPECT_EQ(run_status(bytes), DecodeStatus::kLimitExceeded);

  std::vector<std::uint8_t> payload;
  put_varint(payload, std::uint64_t{1} << 30);  // round
  payload.insert(payload.end(), prefix + 3, good.bytes.end() - 2);
  bytes.assign(good.bytes.begin(), prefix);
  bytes.push_back(static_cast<std::uint8_t>(TraceFrame::kGraph));
  put_varint(bytes, payload.size());
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  bytes.insert(bytes.end(), good.bytes.end() - 2, good.bytes.end());
  EXPECT_EQ(run_status(bytes), DecodeStatus::kBadFrame);
}

TEST(RunCodecHostileTest, UniverseBeyondProcIdRejectedBeforeCast) {
  // Narrowed to ProcId before the range check, n = 2^32 + 3 would
  // alias n = 3 and decode a *different* capture.
  ASSERT_TRUE(decode_trace(header_with_n(3)).ok());
  expect_n_field_rejected(header_with_n((std::uint64_t{1} << 32) + 3),
                          DecodeStatus::kValueOutOfRange);
}

TEST(RunCodecHostileTest, UniverseAboveDecodeCapRejected) {
  expect_n_field_rejected(header_with_n(kMaxDecodeUniverse + 1),
                          DecodeStatus::kValueOutOfRange);
}

TEST(RunCodecHostileTest, OverlongVarintRejected) {
  // 0x83 0x00 is an overlong 3; accepting it would let two distinct
  // byte strings decode to one capture.
  expect_n_field_rejected(header_with_n({0x83, 0x00}),
                          DecodeStatus::kOverlongVarint);
}

TEST(RunCodecHostileTest, ZeroUniverseAndZeroRoundsRejected) {
  expect_n_field_rejected(header_with_n(0), DecodeStatus::kValueOutOfRange);

  // Rounds count from 1: a graph frame numbered 0 is no round at all.
  ThreeNodeRun run = three_node_run(Digraph(3));
  ASSERT_EQ(run.bytes[run.graph_frame + 2], 1u);
  run.bytes[run.graph_frame + 2] = 0;
  EXPECT_EQ(run_status(run.bytes), DecodeStatus::kValueOutOfRange);
}

TEST(RunCodecHostileTest, EdgeTouchingAbsentNodeRejected) {
  // A row naming a node outside the node bitmap is not a graph:
  // Digraph::add_edge would silently re-add the node.
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  ThreeNodeRun run = three_node_run(g);
  std::vector<std::uint8_t>& bytes = run.bytes;
  const std::size_t node_bitmap = run.node_bitmap;
  ASSERT_EQ(bytes[node_bitmap], 0x07);
  ASSERT_EQ(bytes[node_bitmap + 1], 0x06);
  ASSERT_TRUE(decode_trace(bytes).ok());
  // Drop node 2 from the node bitmap while row 0 still targets it.
  bytes[node_bitmap] = 0x03;
  EXPECT_EQ(run_status(bytes), DecodeStatus::kInvalidEdge);

  // Out-edges *from* an absent node are equally malformed.
  bytes[node_bitmap + 1] = 0x02;  // row 0 back in range (0 -> 1)
  bytes[node_bitmap + 3] = 0x01;  // absent node 2 -> 0
  EXPECT_EQ(run_status(bytes), DecodeStatus::kInvalidEdge);
}

TEST(RunCodecHostileTest, PaddingBitsMustBeZero) {
  // Bits >= n in the last byte of a bitmap must be zero, or two byte
  // strings would decode to one graph: in the node bitmap and in a row.
  ThreeNodeRun run = three_node_run(Digraph(3));
  std::vector<std::uint8_t> bytes = run.bytes;
  bytes[run.node_bitmap] |= 0xf8;
  EXPECT_EQ(run_status(bytes), DecodeStatus::kValueOutOfRange);
  bytes = run.bytes;
  bytes[run.node_bitmap + 2] = 0x10;
  EXPECT_EQ(run_status(bytes), DecodeStatus::kValueOutOfRange);
}

TEST(RunCodecHostileTest, TruncationAtEveryBoundaryIsGraceful) {
  Digraph g(9);
  g.add_edge(0, 1);
  g.add_edge(5, 8);
  const std::vector<std::uint8_t> full = encode_trace(run_capture({g, g}));
  for (std::size_t len = 0; len < full.size(); ++len) {
    const std::vector<std::uint8_t> cut(full.begin(),
                                        full.begin() + static_cast<long>(len));
    EXPECT_NE(run_status(cut), DecodeStatus::kOk)
        << "prefix of length " << len << " decoded";
  }
}

}  // namespace
}  // namespace sskel
