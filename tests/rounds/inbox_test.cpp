// Tests for Inbox: the senders/from contract and the word-walking
// for_each used by message-plane transition functions, over the
// per-sender pointer table the engines hand it.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "rounds/algorithm.hpp"

namespace sskel {
namespace {

/// The pointer table an engine builds: entry q points at messages[q].
template <typename Msg>
std::vector<const Msg*> table_over(const std::vector<Msg>& messages) {
  std::vector<const Msg*> table;
  for (const Msg& msg : messages) table.push_back(&msg);
  return table;
}

TEST(InboxTest, SendersAndFrom) {
  const ProcId n = 5;
  ProcSet senders(n);
  senders.insert(1);
  senders.insert(3);
  std::vector<std::string> messages(static_cast<std::size_t>(n));
  messages[1] = "one";
  messages[3] = "three";
  const auto table = table_over(messages);
  const Inbox<std::string> inbox(senders, table);
  EXPECT_EQ(inbox.senders().count(), 2);
  EXPECT_EQ(inbox.from(1), "one");
  EXPECT_EQ(inbox.from(3), "three");
}

TEST(InboxTest, ForEachMatchesIterationAcrossWords) {
  // A universe wider than one payload word, with senders on both
  // sides of the boundary and at both ends: for_each must visit
  // exactly senders(), ascending, with the matching payloads.
  const ProcId n = 150;
  ProcSet senders(n);
  for (ProcId q : {0, 1, 63, 64, 65, 127, 128, 149}) senders.insert(q);
  std::vector<int> messages(static_cast<std::size_t>(n), -1);
  for (ProcId q : senders) messages[static_cast<std::size_t>(q)] = 1000 + q;

  const auto table = table_over(messages);
  const Inbox<int> inbox(senders, table);
  std::vector<std::pair<ProcId, int>> via_for_each;
  inbox.for_each([&](ProcId q, const int& msg) {
    via_for_each.emplace_back(q, msg);
  });

  std::vector<std::pair<ProcId, int>> via_iteration;
  for (ProcId q : inbox.senders()) {
    via_iteration.emplace_back(q, inbox.from(q));
  }
  EXPECT_EQ(via_for_each, via_iteration);
  ASSERT_EQ(via_for_each.size(), 8u);
  EXPECT_EQ(via_for_each.front(), (std::pair<ProcId, int>{0, 1000}));
  EXPECT_EQ(via_for_each.back(), (std::pair<ProcId, int>{149, 1149}));
}

TEST(InboxTest, ForEachOnEmptySendersVisitsNothing) {
  const ProcId n = 100;
  const ProcSet senders(n);
  const std::vector<int> messages(static_cast<std::size_t>(n), 0);
  const auto table = table_over(messages);
  const Inbox<int> inbox(senders, table);
  int visits = 0;
  inbox.for_each([&](ProcId, const int&) { ++visits; });
  EXPECT_EQ(visits, 0);
}

}  // namespace
}  // namespace sskel
