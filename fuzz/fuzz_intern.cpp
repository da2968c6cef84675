// Fuzz target: the structure intern table.
//
// Properties: equal structures resolve to one entry (a labeled graph's
// unlabeled structure included); distinct structures never share an
// entry; and the degraded-fingerprint mode (all keys collide, every
// lookup takes the full-equality fallback) answers identically.
#include <cstdint>
#include <vector>

#include "fuzz_input.hpp"
#include "graph/digraph.hpp"
#include "graph/labeled_digraph.hpp"
#include "skeleton/intern.hpp"
#include "util/assert.hpp"

using namespace sskel;
using sskel::fuzz::FuzzInput;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  FuzzInput input(data, size);
  const ProcId n = static_cast<ProcId>(input.in_range(1, 24));

  StructureInternTable table;
  InternTableOptions degraded_options;
  degraded_options.degrade_fingerprint_for_tests = true;
  StructureInternTable degraded(degraded_options);

  std::vector<Digraph> graphs;
  std::vector<const InternedStructure*> entries;
  const std::uint32_t rounds = input.in_range(1, 16);
  for (std::uint32_t i = 0; i < rounds; ++i) {
    Digraph g(n);
    const std::uint32_t edges = input.in_range(0, 48);
    for (std::uint32_t e = 0; e < edges; ++e) {
      g.add_edge(static_cast<ProcId>(
                     input.in_range(0, static_cast<std::uint32_t>(n) - 1)),
                 static_cast<ProcId>(
                     input.in_range(0, static_cast<std::uint32_t>(n) - 1)));
    }

    InternedStructure* entry = table.intern(g);
    SSKEL_REQUIRE(entry != nullptr);
    // Same structure again: the identical entry, not a sibling.
    SSKEL_REQUIRE(table.intern(g) == entry);

    // A labeled graph with the same nodes/edges resolves to the same
    // entry through its unlabeled structure. The label bytes are still
    // read, so existing corpora keep their meaning.
    if (!g.nodes().empty()) {
      ProcId owner = -1;
      for (ProcId p : g.nodes()) {
        owner = p;
        break;
      }
      LabeledDigraph labeled(n, owner);
      for (ProcId p : g.nodes()) labeled.add_node(p);
      for (ProcId q : g.nodes()) {
        for (ProcId p : g.out_neighbors(q)) {
          labeled.set_edge(q, p,
                           static_cast<Round>(1 + input.in_range(0, 200)));
        }
      }
      SSKEL_REQUIRE(table.intern(labeled.unlabeled()) == entry);
    }

    // Cross-check against every prior structure: entry identity iff
    // graph equality (structure is the whole key).
    for (std::size_t j = 0; j < graphs.size(); ++j) {
      SSKEL_REQUIRE((entries[j] == entry) == (graphs[j] == g));
    }

    // The collision-forced table must agree on equality structure.
    InternedStructure* slow = degraded.intern(g);
    SSKEL_REQUIRE(slow != nullptr);
    SSKEL_REQUIRE(degraded.intern(g) == slow);

    graphs.push_back(std::move(g));
    entries.push_back(entry);
  }
  return 0;
}
