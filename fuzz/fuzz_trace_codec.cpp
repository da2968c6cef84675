// Fuzz target: the framed trace container (DESIGN.md §14).
//
// Property: decode_trace never crashes on arbitrary bytes, and every
// accepted input lands in a stable state — re-encoding the decoded
// capture and decoding again is the identity. (The container is not
// byte-canonical in general: frame order is flexible for captures, so
// idempotence is the right fixed point, not byte equality.)
#include <cstdint>
#include <vector>

#include "rounds/trace.hpp"
#include "util/assert.hpp"

using namespace sskel;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::vector<std::uint8_t> bytes(data, data + size);
  DecodeResult<RunCapture> first = decode_trace(bytes);
  if (!first.ok()) return 0;

  const std::vector<std::uint8_t> re = encode_trace(first.value());
  DecodeResult<RunCapture> second = decode_trace(re);
  SSKEL_REQUIRE(second.ok());
  SSKEL_REQUIRE(second.value() == first.value());
  return 0;
}

extern "C" void sskel_fuzz_seed_corpus(
    std::vector<std::vector<std::uint8_t>>* out) {
  RunCapture c;
  c.header = TraceHeader{5, TraceSource::kNetRing, 42, 1000};
  Digraph g(5);
  g.add_self_loops();
  g.add_edge(0, 1);
  g.add_edge(3, 2);
  c.graphs = {g};
  c.stats = {RoundStats{1, 7, 140, 20}};
  c.messages.push_back(MessageRecord{1, 0, {0xde, 0xad}});
  c.deliveries.push_back(DeliveryRecord{1, 0, 1, DeliveryKind::kOnTime, 900});
  c.deliveries.push_back(
      DeliveryRecord{1, 2, 3, DeliveryKind::kTieDiscard, 1000});
  c.closes.push_back(CloseRecord{1, 0, 1000});
  out->push_back(encode_trace(c));

  RunCapture minimal;
  minimal.header = TraceHeader{1, TraceSource::kSimulator, 0, 0};
  out->push_back(encode_trace(minimal));

  // A simulator capture with node churn: graph bodies whose node
  // bitmap drops a process and whose rows must stay inside it.
  Digraph a(9);
  a.add_self_loops();
  a.add_edge(0, 5);
  a.add_edge(7, 3);
  Digraph b = a;
  b.remove_node(8);
  RunCapture churn;
  churn.header = TraceHeader{9, TraceSource::kSimulator, 0, 0};
  churn.graphs = {a, b, a};
  out->push_back(encode_trace(churn));
}
