// The round-based algorithm interface: sending + transition functions.
//
// Sec. II of the paper: "an algorithm is composed of two functions.
// The sending function determines, for each process p and round r > 0,
// the message p broadcasts in round r based on p's state at the
// beginning of round r. The transition function determines ... the
// state at the end of round r" from the messages received in r.
//
// We keep the message type a template parameter so algorithms exchange
// real typed payloads (value + approximation graph for Algorithm 1, a
// bare value for FloodMin) with zero serialization on the hot path;
// encoded sizes for the bit-complexity experiments come from an
// optional per-message sizer in the simulator.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "util/proc_set.hpp"
#include "util/types.hpp"

namespace sskel {

/// The messages a process received in one round, indexed by sender.
/// `senders` is exactly HO(p, r) for the receiving process p; for a
/// sender q in `senders`, `from(q)` is q's round message. The inbox is
/// a view: `messages[q]` points at q's round message wherever the
/// engine keeps it (the simulator's outbox, the net driver's dcache),
/// so delivering a message copies nothing. Entries of non-senders are
/// never read.
template <typename Msg>
class Inbox {
 public:
  Inbox(const ProcSet& senders, std::span<const Msg* const> messages)
      : senders_(senders), messages_(messages.data()) {
    SSKEL_REQUIRE(messages.size() ==
                  static_cast<std::size_t>(senders.universe()));
  }

  [[nodiscard]] const ProcSet& senders() const { return senders_; }

  [[nodiscard]] const Msg& from(ProcId q) const {
    SSKEL_REQUIRE(senders_.contains(q));
    return *messages_[static_cast<std::size_t>(q)];
  }

  /// Batch consumption: fn(q, msg) for every sender in ascending id
  /// order. Equivalent to iterating senders() and calling from(q),
  /// minus the per-call membership check — the form transition
  /// functions on the message-plane hot path should prefer. Walks the
  /// sender set word-by-word, so the per-message cost is one
  /// count-trailing-zeros plus the callback.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const auto n = static_cast<std::size_t>(senders_.universe());
    for (std::size_t w = 0; w * 64 < n; ++w) {
      std::uint64_t bits = senders_.word_at(w);
      while (bits != 0) {
        const std::size_t i =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        fn(static_cast<ProcId>(i), *messages_[i]);
      }
    }
  }

 private:
  const ProcSet& senders_;
  const Msg* const* messages_;
};

/// A deterministic round-based process. One instance per process id.
template <typename Msg>
class Algorithm {
 public:
  using message_type = Msg;

  virtual ~Algorithm() = default;

  Algorithm(const Algorithm&) = delete;
  Algorithm& operator=(const Algorithm&) = delete;

  [[nodiscard]] ProcId id() const { return id_; }
  [[nodiscard]] ProcId n() const { return n_; }

  /// Sending function S_p^r: the message broadcast in round r,
  /// computed from the state at the *beginning* of round r. Must not
  /// mutate observable state (rounds are communication closed; the
  /// simulator calls every send before any transition).
  [[nodiscard]] virtual Msg send(Round r) = 0;

  /// Storage-reusing form of send(): writes S_p^r into `out`,
  /// replacing its previous contents. The default forwards to send();
  /// algorithms whose messages own heap storage (graphs) override it
  /// to copy-assign the fields directly, so the engines' per-round
  /// outbox refresh reuses the existing message buffers instead of
  /// reallocating them. Same contract as send(): must not mutate
  /// observable state.
  virtual void send_into(Round r, Msg& out) { out = send(r); }

  /// Transition function T_p^r: consumes the round-r inbox and moves
  /// the process to its round r+1 state.
  virtual void transition(Round r, const Inbox<Msg>& inbox) = 0;

 protected:
  Algorithm(ProcId n, ProcId id) : n_(n), id_(id) {
    SSKEL_REQUIRE(n > 0);
    SSKEL_REQUIRE(id >= 0 && id < n);
  }

 private:
  ProcId n_;
  ProcId id_;
};

}  // namespace sskel
