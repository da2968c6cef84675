// certify: Theorem 1 and the Psrcs(k) certificate at n = 4096, on
// three certifier threads.
//
// The benchmark generates the inputs itself: seeded 12-round graph
// sequences over 64 complete blocks of 64 processes, with transient
// cross-block edges and internal edge losses that fade by round
// kFade (the shape of bench_scale's Theorem-1 generator, seeded). The
// program only processes them: SkeletonTracker::observe plus the SCC
// and root-component analytics every round, then greedy_hub_cover and
// is_hub_cover as the certificate. One certification is one trial.
//
// This is the only workload where the tiered ProcSet, the SIMD word
// kernels, incremental SCC and the predicates layer run at scale;
// Algorithm 1 itself is out of reach at this n.
//
// Each certification runs on one thread; three threads certify
// different inputs side by side, as tiles run trials. The threads
// share ProcSet's process-wide byte counters, which every payload
// allocation updates, so their certifications slow each other down:
// three threads certify about as many inputs per second as one.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "campaign/checkpoint.hpp"
#include "common.hpp"
#include "graph/digraph.hpp"
#include "graph/scc.hpp"
#include "predicates/psrcs.hpp"
#include "skeleton/tracker.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using sskel::Digraph;
using sskel::ProcId;
using sskel::ProcSet;
using sskel::Round;

constexpr ProcId kBlock = 64;
constexpr ProcId kBlocks = 64;
constexpr ProcId kN = kBlock * kBlocks;
constexpr int kK = kBlocks;
constexpr Round kRounds = 12;
constexpr Round kFade = 6;
constexpr int kInternalLosses = 32;
/// Set-up certifies the same warm-up inputs in every run.
constexpr std::uint64_t kWarmupSeed = 0x5741524d;  // "WARM"

/// Edge q -> p, present in the round graphs 1 .. until.
struct Transient {
  ProcId q = 0;
  ProcId p = 0;
  Round until = 0;
};

/// One seeded input: up to two cross-block edges into every block and
/// kInternalLosses internal edges that disappear, all by round kFade.
std::vector<Transient> make_sequence(std::uint64_t seed) {
  sskel::Rng rng(seed);
  const auto pick = [&rng](ProcId bound) {
    return static_cast<ProcId>(rng.next_below(static_cast<std::uint64_t>(bound)));
  };
  const auto fade = [&rng] {
    return static_cast<Round>(1 + rng.next_below(static_cast<std::uint64_t>(kFade)));
  };
  std::vector<Transient> sequence;
  for (ProcId b = 0; b < kBlocks; ++b) {
    const ProcId cross = pick(3);
    for (ProcId c = 0; c < cross; ++c) {
      const ProcId a = (b + 1 + pick(kBlocks - 1)) % kBlocks;
      sequence.push_back({a * kBlock + pick(kBlock), b * kBlock + pick(kBlock),
                          fade()});
    }
  }
  for (int i = 0; i < kInternalLosses; ++i) {
    const ProcId base = pick(kBlocks) * kBlock;
    const ProcId q = pick(kBlock);
    const ProcId p = (q + 1 + pick(kBlock - 1)) % kBlock;
    sequence.push_back({base + q, base + p, fade()});
  }
  return sequence;
}

Digraph block_skeleton() {
  Digraph g(kN);
  g.add_self_loops();
  for (ProcId base = 0; base < kN; base += kBlock) {
    for (ProcId q = base; q < base + kBlock; ++q) {
      for (ProcId p = base; p < base + kBlock; ++p) {
        if (q != p) g.add_edge(q, p);
      }
    }
  }
  return g;
}

std::vector<ProcSet> sorted_sets(std::vector<ProcSet> sets) {
  std::sort(sets.begin(), sets.end(), [](const ProcSet& a, const ProcSet& b) {
    return a.first() < b.first();
  });
  return sets;
}

struct Certification {
  double ms = 0.0;
  bool ok = false;
  std::int64_t components_resolved = 0;
  std::uint64_t digest = 0;
};

/// Tracker plus the working round graph, reused across
/// certifications; the graph returns to the block skeleton after each.
class Certifier {
 public:
  Certifier() : graph_(block_skeleton()), tracker_(kN) {}

  Certification certify(const std::vector<Transient>& sequence, bool traced) {
    for (const Transient& t : sequence) graph_.add_edge(t.q, t.p);
    const std::int64_t start = now_ns();
    tracker_.reset();
    for (Round r = 1; r <= kRounds; ++r) {
      for (const Transient& t : sequence) {
        if (t.until == r - 1) graph_.remove_edge(t.q, t.p);
      }
      if (traced) {
        {
          const SpanScope span(Layer::kObserve);
          tracker_.observe(r, graph_);
        }
        const SpanScope span(Layer::kAnalytics);
        (void)tracker_.current_scc();
        (void)tracker_.current_root_components();
      } else {
        tracker_.observe(r, graph_);
        (void)tracker_.current_scc();
        (void)tracker_.current_root_components();
      }
    }
    const Digraph& skeleton = tracker_.skeleton();
    std::optional<ProcSet> cover;
    bool cover_ok = false;
    {
      const auto hub_cover = [&] {
        cover = sskel::greedy_hub_cover(skeleton);
        cover_ok = cover.has_value() && sskel::is_hub_cover(skeleton, *cover);
      };
      if (traced) {
        const SpanScope span(Layer::kHubCover);
        hub_cover();
      } else {
        hub_cover();
      }
    }
    Certification c;
    c.ms = static_cast<double>(now_ns() - start) / 1e6;

    // Checks, outside the timed region: the incremental decomposition
    // equals a fresh Tarjan, Theorem 1 holds with k = #blocks, the
    // cover certifies Psrcs(k), and the skeleton stopped changing the
    // round after the last transient faded.
    const sskel::SccDecomposition& scc = tracker_.current_scc();
    const std::size_t roots = tracker_.current_root_components().size();
    const bool scc_match =
        sorted_sets(sskel::strongly_connected_components(skeleton).components) ==
        sorted_sets(scc.components);
    Round last_fade = 0;
    for (const Transient& t : sequence) last_fade = std::max(last_fade, t.until);
    const int cover_size = cover.has_value() ? cover->count() : kN + 1;
    c.ok = scc_match && cover_ok && cover_size <= kK &&
           roots <= static_cast<std::size_t>(kK) &&
           tracker_.last_change_round() == last_fade + 1;
    c.components_resolved = tracker_.scc_components_resolved();

    std::vector<std::uint8_t> bytes;
    for (const std::int64_t v :
         {static_cast<std::int64_t>(roots), static_cast<std::int64_t>(scc.count()),
          static_cast<std::int64_t>(cover_size), skeleton.edge_count(),
          static_cast<std::int64_t>(tracker_.last_change_round()),
          c.components_resolved}) {
      for (int b = 0; b < 8; ++b) {
        bytes.push_back(static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> (8 * b)));
      }
    }
    c.digest = sskel::fnv1a64(bytes);

    // Restore the block skeleton: cross edges have all faded; put the
    // lost internal edges back.
    for (const Transient& t : sequence) {
      if (t.q / kBlock == t.p / kBlock) graph_.add_edge(t.q, t.p);
    }
    return c;
  }

 private:
  Digraph graph_;
  sskel::SkeletonTracker tracker_;
};

/// The certifier threads: one Certifier each, kept with its thread's
/// ProcSet arena from set-up through the timed passes.
constexpr unsigned kWorkers = 3;

/// kWorkers threads that run one job at a time: run(job) has every
/// worker w call job(w) and returns when all have finished. An
/// exception a job throws is rethrown by run().
class Crew {
 public:
  Crew() : sync_(kWorkers + 1), errors_(kWorkers) {
    for (unsigned w = 0; w < kWorkers; ++w) {
      threads_.emplace_back([this, w] {
        for (;;) {
          sync_.arrive_and_wait();
          if (!job_) return;
          try {
            job_(w);
          } catch (...) {
            errors_[w] = std::current_exception();
          }
          sync_.arrive_and_wait();
        }
      });
    }
  }
  ~Crew() {
    job_ = nullptr;
    sync_.arrive_and_wait();
    for (std::thread& t : threads_) t.join();
  }
  Crew(const Crew&) = delete;
  Crew& operator=(const Crew&) = delete;

  void run(std::function<void(unsigned)> job) {
    job_ = std::move(job);
    sync_.arrive_and_wait();
    sync_.arrive_and_wait();
    for (std::exception_ptr& e : errors_) {
      if (e) std::rethrow_exception(std::exchange(e, nullptr));
    }
  }

 private:
  std::function<void(unsigned)> job_;
  std::barrier<> sync_;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> threads_;
};

/// One worker's share of a pass.
struct WorkerPass {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t components_resolved = 0;
  std::vector<double> trial_ms;
  /// (input index, certification digest).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> digests;
  /// Summed certification time: input generation and the oracle
  /// checks are the benchmark's own work and stay out of the window.
  double busy_ms = 0.0;
};

/// One pass over the inputs i = 0, 1, ... (seed mix_seed(seed, i)),
/// which the workers claim in order.
struct Pass {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t components_resolved = 0;
  std::vector<double> trial_ms;
  /// Certification digests of inputs 0 .. digests.size() - 1, every
  /// input up to the first one no worker certified.
  std::vector<std::uint64_t> digests;
  /// Sum over the workers of certifications per second of their
  /// certification time.
  double trials_per_s = 0.0;
};

/// Certifies inputs on every worker until the deadline and at least
/// `min` inputs.
Pass run_pass(Crew& crew, std::vector<std::unique_ptr<Certifier>>& certifiers,
              std::uint64_t seed, double seconds, std::int64_t min,
              bool traced) {
  std::vector<WorkerPass> shares(kWorkers);
  std::atomic<std::uint64_t> next{0};
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  crew.run([&](unsigned w) {
    WorkerPass& share = shares[w];
    for (;;) {
      const std::uint64_t i = next.fetch_add(1);
      if (static_cast<std::int64_t>(i) >= min && now_ns() >= deadline) break;
      if (traced) set_trial(i);
      const Certification c = certifiers[w]->certify(
          make_sequence(sskel::mix_seed(seed, i)), traced);
      ++share.attempted;
      if (!c.ok) ++share.failed;
      share.trial_ms.push_back(c.ms);
      share.busy_ms += c.ms;
      share.components_resolved += c.components_resolved;
      share.digests.emplace_back(i, c.digest);
    }
  });

  Pass pass;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> digests;
  for (const WorkerPass& share : shares) {
    pass.attempted += share.attempted;
    pass.failed += share.failed;
    pass.components_resolved += share.components_resolved;
    pass.trial_ms.insert(pass.trial_ms.end(), share.trial_ms.begin(),
                         share.trial_ms.end());
    digests.insert(digests.end(), share.digests.begin(), share.digests.end());
    if (share.busy_ms > 0.0) {
      pass.trials_per_s +=
          static_cast<double>(share.attempted) * 1e3 / share.busy_ms;
    }
  }
  std::sort(digests.begin(), digests.end());
  for (const auto& [index, digest] : digests) {
    if (index != pass.digests.size()) break;
    pass.digests.push_back(digest);
  }
  return pass;
}

/// Digest of the certification digests of inputs 0 .. count - 1.
std::uint64_t fold_digest(const std::vector<std::uint64_t>& digests,
                          std::int64_t count) {
  std::vector<std::uint8_t> bytes;
  for (std::int64_t i = 0; i < count; ++i) {
    const std::uint64_t d = digests.at(static_cast<std::size_t>(i));
    for (int b = 0; b < 8; ++b) {
      bytes.push_back(static_cast<std::uint8_t>(d >> (8 * b)));
    }
  }
  return sskel::fnv1a64(bytes);
}

}  // namespace

Result run_certify(const Args& args) {
  Result result;
  plan_threads(result, kWorkers);
  result.note("tiles", std::to_string(kWorkers));
  result.note("placement", "unpinned");
  result.note("failed_pins", "0");

  // Set-up: on every worker, the block skeleton and the tracker, then
  // one warm-up certification on fixed inputs that fills the worker's
  // ProcSet arena. The crew is declared last, so its threads are
  // joined before what their jobs use is destroyed.
  std::vector<double> setup_s;
  std::vector<std::unique_ptr<Certifier>> certifiers(kWorkers);
  std::vector<char> warm_ok(kWorkers, 0);
  Crew crew;
  for (int rep = 0; rep < setup_reps(args); ++rep) {
    const std::int64_t t0 = now_ns();
    crew.run([&](unsigned w) {
      certifiers[w].reset();
      certifiers[w] = std::make_unique<Certifier>();
      warm_ok[w] = certifiers[w]->certify(make_sequence(kWarmupSeed), false).ok;
    });
    setup_s.push_back(seconds_between(t0, now_ns()));
    for (const char ok : warm_ok) {
      ++result.attempted;
      if (ok == 0) ++result.failed;
    }
  }

  if (!args.trace) {
    const std::int64_t min = min_trials(args);
    const Pass pass =
        run_pass(crew, certifiers, args.seed, args.seconds, min, false);
    result.attempted += pass.attempted;
    result.failed += pass.failed;
    result.note("fold_digest", hex(fold_digest(pass.digests, min)));
    result.note("fold_digest_trials", std::to_string(min));
    EndToEnd e2e;
    e2e.trials_per_s = pass.trials_per_s;
    e2e.trial_ms = pass.trial_ms;
    e2e.setup_s = setup_s;
    e2e.peak_rss_mb = peak_rss_mb();
    add_end_to_end(result, e2e);
    return result;
  }

  const std::int64_t min = std::min<std::int64_t>(12, min_trials(args));
  const Pass untraced =
      run_pass(crew, certifiers, args.seed, args.seconds / 2.0, min, false);
  reset();
  ProcSet::reset_peak_bytes();
  const Pass traced =
      run_pass(crew, certifiers, args.seed, args.seconds / 2.0, min, true);
  const TraceTotals spans = totals();
  result.attempted += untraced.attempted + traced.attempted;
  result.failed += untraced.failed + traced.failed;

  const std::size_t common =
      std::min(untraced.digests.size(), traced.digests.size());
  result.fidelity_ok =
      common > 0 && std::equal(traced.digests.begin(),
                               traced.digests.begin() +
                                   static_cast<std::ptrdiff_t>(common),
                               untraced.digests.begin());
  result.note("fidelity_trials", std::to_string(common));
  result.note("fold_digest", hex(fold_digest(traced.digests, min)));
  result.note("fold_digest_untraced", hex(fold_digest(untraced.digests, min)));
  result.note("fold_digest_trials", std::to_string(min));

  PerLayer layer;
  layer.rounds_per_trial = kRounds;
  layer.scc_components_resolved =
      static_cast<double>(traced.components_resolved) /
      static_cast<double>(traced.attempted);
  layer.peak_proc_set_mb =
      static_cast<double>(ProcSet::peak_bytes()) / (1024.0 * 1024.0);
  layer.throughput_ratio = traced.trials_per_s / untraced.trials_per_s;
  result.note("untraced_trials_per_s", std::to_string(untraced.trials_per_s));
  result.note("traced_trials_per_s", std::to_string(traced.trials_per_s));
  add_per_layer(result, layer, spans);
  return result;
}

}  // namespace perfbench
