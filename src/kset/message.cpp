#include "kset/message.hpp"

#include <algorithm>
#include <bit>

#include "skeleton/codec.hpp"
#include "util/varint.hpp"

namespace sskel {

namespace {

constexpr std::uint64_t bit_of(ProcId q) {
  return std::uint64_t{1} << (static_cast<unsigned>(q) % 64);
}

constexpr std::size_t word_of(ProcId q) {
  return static_cast<std::size_t>(q) / 64;
}

}  // namespace

PtHistory::PtHistory(ProcId n)
    : n_(n),
      pt_(n),
      last_(static_cast<std::size_t>(n), kForever),
      live_(pt_.word_span()),
      left_(n) {
  expired_.reserve(static_cast<std::size_t>(n));
  reset();
}

void PtHistory::reset() {
  pt_.fill();
  std::fill(last_.begin(), last_.end(), kForever);
  expired_.clear();
  for (std::size_t w = 0; w < live_.size(); ++w) live_[w] = pt_.word_at(w);
  cutoff_ = 0;
  window_ = 0;
}

void PtHistory::advance(const ProcSet& senders, Round r) {
  if (pt_.intersect_diff(senders, left_)) {
    for (ProcId q : left_) {
      last_[static_cast<std::size_t>(q)] = r - 1;
      expired_.push_back(q);
    }
  }
  cutoff_ = std::max<Round>(r - n_, 0);
  while (window_ < expired_.size() &&
         last_timely(expired_[window_]) <= cutoff_) {
    const ProcId q = expired_[window_];
    live_[word_of(q)] &= ~bit_of(q);
    ++window_;
  }
}

void PtHistory::alive_after_shifted(Round cutoff, const std::uint64_t* mask,
                                    std::uint64_t* out) const {
  std::copy(live_.begin(), live_.end(), out);
  if (cutoff > cutoff_) {
    for (std::size_t i = window_;
         i < expired_.size() && last_timely(expired_[i]) <= cutoff; ++i) {
      out[word_of(expired_[i])] &= ~bit_of(expired_[i]);
    }
  } else {
    for (std::size_t i = window_;
         i > 0 && last_timely(expired_[i - 1]) > cutoff; --i) {
      out[word_of(expired_[i - 1])] |= bit_of(expired_[i - 1]);
    }
  }
  for (std::size_t w = 0; w < live_.size(); ++w) out[w] &= mask[w];
}

Round SkeletonMessage::round() const {
  return lambda.empty() ? 0 : *std::max_element(lambda.begin(), lambda.end());
}

namespace {

/// Calls fn(q', q, label) for every edge of m.graph(), grouped by
/// target q in increasing order.
template <typename Fn>
void for_each_edge(const SkeletonMessage& m, Fn&& fn) {
  const ProcId n = m.nodes.universe();
  const Round cutoff = std::max<Round>(m.round() - n, 0);
  const std::size_t span = m.nodes.word_span();
  std::vector<std::uint64_t> mask(span);
  std::vector<std::uint64_t> row(span);
  for (std::size_t w = 0; w < span; ++w) mask[w] = m.nodes.word_at(w);
  for (ProcId q : m.nodes) {
    const Round lambda_q = m.lambda[static_cast<std::size_t>(q)];
    if (lambda_q <= cutoff) continue;
    const PtHistory& t = *m.history[static_cast<std::size_t>(q)];
    t.alive_after(cutoff, mask.data(), row.data());
    for (std::size_t w = 0; w < span; ++w) {
      for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        const auto src =
            static_cast<ProcId>(w * 64 + static_cast<std::size_t>(
                                             std::countr_zero(bits)));
        fn(src, q, std::min(lambda_q, t.last_timely(src)));
      }
    }
  }
}

}  // namespace

LabeledDigraph SkeletonMessage::graph() const {
  LabeledDigraph g(nodes.universe(), nodes.first());
  for (ProcId q : nodes) g.add_node(q);
  for_each_edge(*this, [&g](ProcId src, ProcId q, Round label) {
    g.set_edge(src, q, label);
  });
  return g;
}

std::int64_t encoded_size(const SkeletonMessage& m) {
  const ProcId n = m.nodes.universe();
  std::int64_t size = 1 + 8 + varint_size(static_cast<std::uint64_t>(n)) +
                      (static_cast<std::int64_t>(n) + 7) / 8;
  std::uint64_t edges = 0;
  for_each_edge(m, [&](ProcId src, ProcId q, Round label) {
    ++edges;
    size += varint_size(static_cast<std::uint64_t>(src)) +
            varint_size(static_cast<std::uint64_t>(q)) +
            varint_size(static_cast<std::uint64_t>(label));
  });
  return size + varint_size(edges);
}

void encode_message(const SkeletonMessage& m, std::vector<std::uint8_t>& out) {
  out.push_back(m.decide ? 1 : 0);
  const auto v = static_cast<std::uint64_t>(m.x);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  const std::vector<std::uint8_t> graph = encode_graph(m.graph());
  out.insert(out.end(), graph.begin(), graph.end());
}

}  // namespace sskel
