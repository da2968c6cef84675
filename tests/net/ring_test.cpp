// Tests for the frag-ring transport: publish/poll order, wraparound
// across many laps, seq-overrun detection and resync, and the RingMux
// multi-producer merge (per-producer order preservation). Payload
// values serve as the order markers.
#include "net/ring.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace sskel {
namespace {

/// Publishes `value` as the ring's next frag, in the payload slot its
/// seq maps to (TilePlane's slot discipline).
void publish_value(FragRing<int>& ring, int value) {
  const auto slot = static_cast<std::uint32_t>(ring.seq_produced() %
                                               ring.payload_slots());
  ring.payload(slot) = value;
  ring.publish(slot);
}

TEST(SeqArithmeticTest, WrapsSafely) {
  EXPECT_EQ(seq_diff(5, 3), 2);
  EXPECT_EQ(seq_diff(3, 5), -2);
  // Across the 2^64 rollover the signed distance stays small.
  const std::uint64_t near_max = ~std::uint64_t{0} - 1;
  EXPECT_EQ(seq_diff(near_max + 3, near_max), 3);
  EXPECT_TRUE(seq_lt(near_max, near_max + 2));
  EXPECT_FALSE(seq_lt(near_max + 2, near_max));
}

TEST(FragRingTest, FreshCursorSeesEmptyRing) {
  FragRing<int> ring(8);
  FragRing<int>::Cursor cursor;
  Frag frag;
  EXPECT_EQ(ring.poll(cursor, frag), PollStatus::kEmpty);
  EXPECT_EQ(cursor.seq, 0u);
  EXPECT_EQ(cursor.overruns, 0);
}

TEST(FragRingTest, PublishPollRoundTripPreservesDescriptors) {
  FragRing<int> ring(8);
  // Slots in reverse publication order: the descriptor, not the seq,
  // must carry the slot index.
  for (int i = 0; i < 5; ++i) {
    const auto slot = static_cast<std::uint32_t>(7 - i);
    ring.payload(slot) = 100 + i;
    ring.publish(slot);
  }
  FragRing<int>::Cursor cursor;
  Frag frag;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(ring.poll(cursor, frag), PollStatus::kFrag);
    EXPECT_EQ(frag.seq, static_cast<std::uint64_t>(i));
    EXPECT_EQ(frag.slot, static_cast<std::uint32_t>(7 - i));
    EXPECT_EQ(ring.payload(frag.slot), 100 + i);
  }
  EXPECT_EQ(ring.poll(cursor, frag), PollStatus::kEmpty);
}

TEST(FragRingTest, DepthRoundsUpToPowerOfTwoMinFour) {
  EXPECT_EQ(FragRing<int>(0).depth(), 4u);
  EXPECT_EQ(FragRing<int>(5).depth(), 8u);
  EXPECT_EQ(FragRing<int>(8).depth(), 8u);
}

TEST(FragRingTest, WraparoundSurvivesManyLaps) {
  FragRing<int> ring(4);  // tiny: every 4 frags is a lap
  FragRing<int>::Cursor cursor;
  Frag frag;
  for (int i = 0; i < 1000; ++i) {
    publish_value(ring, i);
    ASSERT_EQ(ring.poll(cursor, frag), PollStatus::kFrag);
    EXPECT_EQ(frag.seq, static_cast<std::uint64_t>(i));
    EXPECT_EQ(ring.payload(frag.slot), i);
    EXPECT_EQ(ring.poll(cursor, frag), PollStatus::kEmpty);
  }
  EXPECT_EQ(cursor.overruns, 0);
}

TEST(FragRingTest, OverrunResyncsToOldestLiveFrag) {
  FragRing<int> ring(4);
  // Publish 6 frags without consuming: seqs 0 and 1 are overwritten.
  for (int i = 0; i < 6; ++i) publish_value(ring, i);
  FragRing<int>::Cursor cursor;  // still at seq 0
  Frag frag;
  // Resync is per-line (cursor.seq = tag - mask): the lapped cursor
  // may report an overrun per lapped line it lands on before
  // converging. Line 0 carries seq 4 -> resync to 1; line 1 carries
  // seq 5 -> resync to 2, the oldest seq still live in the ring.
  ASSERT_EQ(ring.poll(cursor, frag), PollStatus::kOverrun);
  EXPECT_EQ(cursor.seq, 1u);
  ASSERT_EQ(ring.poll(cursor, frag), PollStatus::kOverrun);
  EXPECT_EQ(cursor.seq, 2u);
  EXPECT_EQ(cursor.overruns, 2);
  // Everything still live is delivered in order; nothing is lost past
  // the resync point.
  for (int expect = 2; expect < 6; ++expect) {
    ASSERT_EQ(ring.poll(cursor, frag), PollStatus::kFrag);
    EXPECT_EQ(ring.payload(frag.slot), expect);
  }
  EXPECT_EQ(ring.poll(cursor, frag), PollStatus::kEmpty);
}

TEST(FragRingTest, IndependentCursorsConsumeIndependently) {
  FragRing<int> ring(8);
  for (int i = 0; i < 3; ++i) publish_value(ring, i);
  FragRing<int>::Cursor a;
  FragRing<int>::Cursor b;
  Frag frag;
  ASSERT_EQ(ring.poll(a, frag), PollStatus::kFrag);
  ASSERT_EQ(ring.poll(a, frag), PollStatus::kFrag);
  // Cursor b still sees everything from the start.
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(ring.poll(b, frag), PollStatus::kFrag);
    EXPECT_EQ(ring.payload(frag.slot), i);
  }
}

TEST(RingMuxTest, PreservesPerProducerOrder) {
  FragRing<int> ring_a(8);
  FragRing<int> ring_b(8);
  RingMux<int> mux;
  const std::size_t ia = mux.attach(&ring_a);
  const std::size_t ib = mux.attach(&ring_b);
  // Interleave publishes; payloads encode (producer, position).
  publish_value(ring_a, 100);
  publish_value(ring_b, 200);
  publish_value(ring_a, 101);
  publish_value(ring_b, 201);
  publish_value(ring_a, 102);

  std::vector<int> from_a;
  std::vector<int> from_b;
  Frag frag;
  std::size_t producer = 0;
  while (mux.poll(frag, producer) == PollStatus::kFrag) {
    if (producer == ia) {
      from_a.push_back(ring_a.payload(frag.slot));
    } else {
      from_b.push_back(ring_b.payload(frag.slot));
    }
  }
  EXPECT_EQ(from_a, (std::vector<int>{100, 101, 102}));
  EXPECT_EQ(from_b, (std::vector<int>{200, 201}));
  EXPECT_EQ(mux.seq_consumed(ia), 3u);
  EXPECT_EQ(mux.seq_consumed(ib), 2u);
  EXPECT_EQ(mux.overruns(ia), 0);
  EXPECT_EQ(mux.overruns(ib), 0);
}

TEST(RingMuxTest, RoundRobinDoesNotStarveAnyProducer) {
  FragRing<int> busy(64);
  FragRing<int> quiet(64);
  RingMux<int> mux;
  mux.attach(&busy);
  const std::size_t iq = mux.attach(&quiet);
  for (int i = 0; i < 32; ++i) publish_value(busy, i);
  publish_value(quiet, 999);

  // The quiet producer's single frag must surface within one sweep of
  // the inputs, not after the busy ring drains.
  Frag frag;
  std::size_t producer = 0;
  int polls_until_quiet = 0;
  while (mux.poll(frag, producer) == PollStatus::kFrag) {
    ++polls_until_quiet;
    if (producer == iq) break;
  }
  ASSERT_EQ(producer, iq);
  EXPECT_EQ(quiet.payload(frag.slot), 999);
  EXPECT_LE(polls_until_quiet, 2);
}

}  // namespace
}  // namespace sskel
