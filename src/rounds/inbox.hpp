// Reusable round-inbox storage for substrates that deposit messages
// incrementally (DESIGN.md §12).
//
// A round synchronizer with skews below the round duration keeps at
// most two rounds live per process: its current round r and round
// r + 1, which early-clock peers may already be sending. InboxBuffer
// exploits that bound with exactly two parity-indexed slots per
// process, allocated once for the whole run. A slot holds no messages:
// it keeps the sender set and one pointer per sender into wherever the
// substrate keeps the payload (the net driver's parity-keyed dcache),
// and the substrate guarantees the payload outlives the round's
// consumption. Acquiring a slot for a new round resets its sender set
// and leaves the pointer table untouched: Inbox<Msg> never reads the
// entry of a sender outside HO(p, r) (rounds/algorithm.hpp), so stale
// pointers are unreachable.
#pragma once

#include <vector>

#include "util/assert.hpp"
#include "util/proc_set.hpp"
#include "util/types.hpp"

namespace sskel {

/// One process's inbox for one live round: the sender set (exactly
/// HO(p, r) so far) plus, per sender, a pointer to its round message.
template <typename Msg>
struct RoundInboxSlot {
  Round round = 0;  // 0 = never acquired (rounds are 1-based)
  ProcSet senders;
  std::vector<const Msg*> messages;
};

/// Two reusable inbox slots per process, keyed by round parity.
/// Callers must respect the two-live-rounds window: acquiring round
/// r + 2 recycles round r's slot.
template <typename Msg>
class InboxBuffer {
 public:
  explicit InboxBuffer(ProcId n) : n_(n) {
    SSKEL_REQUIRE(n > 0);
    slots_.resize(2 * static_cast<std::size_t>(n));
    for (RoundInboxSlot<Msg>& slot : slots_) {
      slot.senders = ProcSet(n);
      slot.messages.assign(static_cast<std::size_t>(n), nullptr);
    }
  }

  /// The slot for (p, r), reset (sender set emptied, round stamped) on
  /// first acquisition for r. Depositing and consuming within the same
  /// round share the identical slot object.
  RoundInboxSlot<Msg>& acquire(ProcId p, Round r) {
    RoundInboxSlot<Msg>& slot =
        slots_[2 * static_cast<std::size_t>(p) +
               (static_cast<std::size_t>(r) & 1U)];
    if (slot.round != r) {
      slot.round = r;
      slot.senders.clear();
    }
    return slot;
  }

  [[nodiscard]] ProcId n() const { return n_; }

 private:
  ProcId n_;
  std::vector<RoundInboxSlot<Msg>> slots_;
};

}  // namespace sskel
