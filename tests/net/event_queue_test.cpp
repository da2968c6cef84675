// Unit tests for the discrete-event queue.
#include "net/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace sskel {
namespace {

TEST(EventQueueTest, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (q.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueueTest, FifoTieBreakOnEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(7, [&order, i] { order.push_back(i); });
  }
  while (q.step()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, HandlersMayScheduleMoreEvents) {
  EventQueue q;
  std::vector<SimTime> times;
  q.schedule(1, [&] {
    times.push_back(q.now());
    q.schedule(5, [&] {
      times.push_back(q.now());
      q.schedule(9, [&] { times.push_back(q.now()); });
    });
  });
  while (q.step()) {
  }
  EXPECT_EQ(times, (std::vector<SimTime>{1, 5, 9}));
}

TEST(EventQueueTest, RunWithLimit) {
  EventQueue q;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    q.schedule(i, [&] { ++count; });
  }
  EXPECT_EQ(q.run(4), 4);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(q.pending(), 6u);
  EXPECT_EQ(q.run(100), 6);
}

TEST(EventQueueTest, StepOnEmptyReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.step());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, PeekKeyExposesEarliestTimeAndSeq) {
  EventQueue q;
  SimTime t = -1;
  std::uint64_t seq = 99;
  EXPECT_FALSE(q.peek_key(t, seq));

  q.schedule(20, [] {});  // seq 0
  q.schedule(10, [] {});  // seq 1
  ASSERT_TRUE(q.peek_key(t, seq));
  EXPECT_EQ(t, 10);
  EXPECT_EQ(seq, 1u);

  q.step();
  ASSERT_TRUE(q.peek_key(t, seq));
  EXPECT_EQ(t, 20);
  EXPECT_EQ(seq, 0u);
}

TEST(EventQueueTest, ScheduleAndTakeSeqDrawFromOneCounter) {
  // The ring driver keys late arrivals by the seq of their capture
  // event when tracing and by take_seq() otherwise; both must come
  // from the same counter so the keys interleave with the closes'.
  EventQueue q;
  EXPECT_EQ(q.schedule(10, [] {}), 0u);
  EXPECT_EQ(q.take_seq(), 1u);
  EXPECT_EQ(q.schedule(5, [] {}), 2u);
  SimTime t = 0;
  std::uint64_t seq = 0;
  ASSERT_TRUE(q.peek_key(t, seq));
  EXPECT_EQ(t, 5);
  EXPECT_EQ(seq, 2u);
}

TEST(EventQueueTest, ExternalTimerInterleavesByTimeSeqKey) {
  // The ring driver's calendar discipline, in miniature: an external
  // timer draws its seq at registration time, compares against
  // peek_key to decide who fires next, and reports through
  // advance_now — reproducing exactly the order one heap would give.
  EventQueue q;
  std::vector<int> order;

  q.schedule(10, [&] { order.push_back(1) /* heap @10, seq 0 */; });
  const std::uint64_t timer_a_seq = q.take_seq();  // external @15, seq 1
  q.schedule(15, [&] { order.push_back(3) /* heap @15, seq 2 */; });
  const std::uint64_t timer_b_seq = q.take_seq();  // external @15, seq 3

  struct ExternalTimer {
    SimTime time;
    std::uint64_t seq;
    int tag;
  };
  std::vector<ExternalTimer> timers{{15, timer_a_seq, 2},
                                    {15, timer_b_seq, 4}};
  std::size_t next = 0;

  for (;;) {
    SimTime head_time = 0;
    std::uint64_t head_seq = 0;
    const bool queued = q.peek_key(head_time, head_seq);
    const bool timed = next < timers.size();
    if (!queued && !timed) break;
    if (timed &&
        (!queued || timers[next].time < head_time ||
         (timers[next].time == head_time && timers[next].seq < head_seq))) {
      q.advance_now(timers[next].time);
      order.push_back(timers[next].tag);
      ++next;
    } else {
      ASSERT_TRUE(q.step());
    }
  }
  // All three seq-1..3 entries share t=15; seq decides: 2, 3, 4.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(q.now(), 15);
}

TEST(EventQueueTest, AdvanceNowMovesTheClockWithoutEvents) {
  EventQueue q;
  EXPECT_EQ(q.now(), 0);
  q.advance_now(42);
  EXPECT_EQ(q.now(), 42);
  q.advance_now(42);  // idempotent at the same instant
  EXPECT_EQ(q.now(), 42);
  // Scheduling respects the externally-advanced clock.
  q.schedule(50, [] {});
  EXPECT_TRUE(q.step());
  EXPECT_EQ(q.now(), 50);
}

TEST(EventQueueDeathTest, AdvanceNowBackwardsRejected) {
  EventQueue q;
  q.advance_now(10);
  EXPECT_DEATH(q.advance_now(5), "precondition");
}

TEST(EventQueueDeathTest, SchedulingInThePastRejected) {
  EventQueue q;
  q.schedule(10, [] {});
  q.step();
  EXPECT_DEATH(q.schedule(5, [] {}), "precondition");
}

}  // namespace
}  // namespace sskel
