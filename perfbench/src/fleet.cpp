// fleet: CampaignEngine::run with checkpointing on, over several jobs
// with distinct master seeds that share one small partition scenario.
//
// A trial is a few tens of microseconds on a tile, so dispatch, ring
// hand-off, fold, checkpoint and per-trial fixed costs dominate. The
// campaign has the shape of the repository's own sweeps: each job is
// bench_campaign's (E17) 100k trials, checkpointed every 10k trials
// (also sskel_campaign's default). All jobs share one scenario object
// on purpose: the engine keeps one McTilePlane per distinct scenario,
// and idle tiles of the other planes would spin on yield, so a
// many-scenario campaign on a 4-CPU host would measure the scheduler.
//
// The engine is built once and run() back to back: the plane, its
// intern shards and the ProcSet arenas stay hot across runs, as in a
// long campaign. Every run folds the same trials, so every run must
// end on the same per-job digests.
//
// The engine hides the per-trial sink, so trial_ms here is the
// dispatcher-side time per folded trial over each progress interval
// of kProgressEvery trials. The traced run reads the engine's own
// CampaignStats and summaries for the counters they hold, and mirrors
// the engine's dispatch loop on the stream face (same adaptive burst,
// same folds, checkpoint encodes at the same points) to time the calls
// the engine makes internally.
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <thread>

#include "adversary/partition.hpp"
#include "campaign/campaign.hpp"
#include "common.hpp"
#include "traced_kset.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using sskel::CampaignEngine;
using sskel::CampaignResult;
using sskel::CampaignSpec;
using sskel::McTilePlane;

constexpr int kK = 2;
constexpr int kJobs = 3;
constexpr std::int64_t kTrialsPerJob = 100000;
constexpr std::int64_t kCheckpointEvery = 10000;
constexpr std::int64_t kProgressEvery = 256;
constexpr std::size_t kWindow = 256;
/// Set-up warms up on one checkpoint interval of this fixed seed, so it
/// does the same work whatever --seed is.
constexpr std::uint64_t kWarmupSeed = 0x5741524d;  // "WARM"
constexpr std::int64_t kWarmupTrials = kCheckpointEvery;

/// Turns progress records into per-interval time per folded trial.
struct ChunkClock {
  bool active = false;
  double last_seconds = 0.0;
  std::int64_t last_done = 0;
  std::vector<double> trial_ms;

  void start_run() {
    last_seconds = 0.0;
    last_done = 0;
  }
  void record(const sskel::CampaignProgress& p) {
    const std::int64_t trials = p.campaign_trials_done - last_done;
    if (active && trials > 0) {
      trial_ms.push_back((p.elapsed_seconds - last_seconds) * 1e3 /
                         static_cast<double>(trials));
    }
    last_seconds = p.elapsed_seconds;
    last_done = p.campaign_trials_done;
  }
};

sskel::PartitionParams partition_params() {
  sskel::PartitionParams params;
  params.blocks = sskel::even_blocks(4, 2);
  params.cross_noise_probability = 0.3;
  params.stabilization_round = 3;
  return params;
}

CampaignSpec make_spec(
    const std::shared_ptr<const sskel::ScenarioFactory>& scenario,
    std::uint64_t seed, int jobs, std::int64_t trials_per_job) {
  CampaignSpec spec;
  spec.config.k = kK;
  for (int j = 0; j < jobs; ++j) {
    sskel::CampaignJob job;
    job.name = "job-" + std::to_string(j);
    job.scenario = scenario;
    job.master_seed = sskel::mix_seed(seed, static_cast<std::uint64_t>(j));
    job.trials = trials_per_job;
    spec.jobs.push_back(std::move(job));
  }
  return spec;
}

std::uint64_t combined_digest(const std::vector<std::uint64_t>& jobs) {
  std::vector<std::uint8_t> bytes;
  for (const std::uint64_t d : jobs) {
    for (int b = 0; b < 8; ++b) {
      bytes.push_back(static_cast<std::uint8_t>(d >> (8 * b)));
    }
  }
  return sskel::fnv1a64(bytes);
}

std::vector<std::uint64_t> job_digests(const CampaignResult& run) {
  std::vector<std::uint64_t> digests;
  for (const sskel::McSummary& s : run.summaries) {
    digests.push_back(summary_digest(s));
  }
  return digests;
}

/// Trials of a finished run that failed a check, read off the folded
/// counters (an upper bound when one trial fails several checks).
std::int64_t failed_trials(const CampaignResult& run, int k) {
  std::int64_t failed = 0;
  std::int64_t trials = 0;
  for (const sskel::McSummary& s : run.summaries) {
    trials += s.runs;
    failed += s.undecided_runs + s.agreement_violations +
              s.validity_violations + s.bound_violations;
    for (const auto& [roots, count] : s.root_histogram.buckets()) {
      if (roots > k) failed += count;
    }
  }
  return std::min(failed, trials);
}

/// Back-to-back engine runs; each must reproduce `reference`.
struct RunLoop {
  std::int64_t runs = 0;
  std::int64_t trials = 0;
  double wall_seconds = 0.0;
  double stall_seconds = 0.0;
  std::int64_t checkpoints = 0;
  /// CampaignStats' stall counts add up the plane's counters, which
  /// accumulate over the plane's lifetime (from the engine's first
  /// run); these are the per-run differences, summed.
  std::int64_t submit_stalls = 0;
  std::int64_t result_stalls = 0;
  std::int64_t burst_grows = 0;
  std::int64_t burst_shrinks = 0;
  /// Service fields of the last run (intern counters, ProcSet peak).
  sskel::McSummary last_summary;

  [[nodiscard]] double trials_per_s() const {
    return wall_seconds > 0.0 ? static_cast<double>(trials) / wall_seconds
                              : 0.0;
  }
};

/// Runs a fresh `engine` back to back for `seconds`. Every run must end
/// on `reference`, the per-job digests (taken from the first run when
/// empty).
RunLoop run_engine(CampaignEngine& engine, ChunkClock& clock, double seconds,
                   std::size_t min_chunks, std::vector<std::uint64_t>& reference,
                   Result& result) {
  RunLoop loop;
  sskel::CampaignStats previous;
  const std::int64_t start = now_ns();
  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  while (loop.runs == 0 || now_ns() < deadline ||
         clock.trial_ms.size() < min_chunks) {
    clock.start_run();
    const CampaignResult run = engine.run();
    ++loop.runs;
    loop.trials += run.stats.trials_folded;
    loop.stall_seconds += run.stats.checkpoint_stall_seconds;
    loop.checkpoints += run.stats.checkpoints_written;
    loop.submit_stalls += run.stats.submit_stalls - previous.submit_stalls;
    loop.result_stalls += run.stats.result_stalls - previous.result_stalls;
    loop.burst_grows += run.stats.burst_grows;
    loop.burst_shrinks += run.stats.burst_shrinks;
    previous = run.stats;
    loop.last_summary = run.summaries.back();
    result.attempted += run.stats.trials_folded;
    if (reference.empty()) reference = job_digests(run);
    if (!run.completed || job_digests(run) != reference) {
      result.failed += run.stats.trials_folded;
    } else {
      result.failed += failed_trials(run, kK);
    }
  }
  loop.wall_seconds = seconds_between(start, now_ns());
  return loop;
}

struct MirrorOutcome {
  std::vector<std::uint64_t> job_digests;
  std::int64_t trials = 0;
  std::int64_t failed = 0;
  std::int64_t busy_ns = 0;
  double wall_seconds = 0.0;
  TrialCounts counts;
};

/// One pass over the spec through the stream face, the way
/// CampaignEngine::execute drives it, with every call timed. The
/// checkpoint is encoded inline where the engine would hand it to its
/// writer thread.
MirrorOutcome run_mirror(McTilePlane& plane, const CampaignSpec& spec) {
  MirrorOutcome out;
  sskel::CampaignCheckpoint state;
  state.spec_fingerprint = spec.fingerprint();
  state.jobs.resize(spec.jobs.size());
  const auto encode = [&] {
    set_trial(0);
    const SpanScope span(Layer::kEncode);
    (void)sskel::encode_checkpoint(state);
  };

  const std::int64_t start = now_ns();
  for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
    const sskel::CampaignJob& job = spec.jobs[j];
    sskel::JobCheckpoint& job_state = state.jobs[j];
    job_state.summary.scenario = job.scenario->name();
    job_state.summary.bytes_measured = spec.config.measure_bytes;
    plane.stream_begin(spec.config, kWindow);

    const McTilePlane::StreamSink sink = [&](std::uint64_t index,
                                             const sskel::ScenarioTrial& trial,
                                             std::int64_t elapsed_ns) {
      set_trial(sskel::mix_seed(job.master_seed, index));
      bool ok = false;
      {
        const SpanScope span(Layer::kFold);
        ok = fold_checked(job_state.summary, trial, spec.config);
      }
      ++job_state.trials_folded;
      ++out.trials;
      if (!ok) ++out.failed;
      out.busy_ns += elapsed_ns;
      out.counts.add(trial);
      if (job_state.trials_folded % kCheckpointEvery == 0) encode();
    };

    auto next = static_cast<std::uint64_t>(0);
    const auto total = static_cast<std::uint64_t>(job.trials);
    auto burst = std::min<std::int64_t>(32, static_cast<std::int64_t>(kWindow));
    while (job_state.trials_folded < job.trials) {
      std::int64_t submitted = 0;
      bool refused = false;
      while (submitted < burst && next < total) {
        if (!traced_offer(plane, next,
                          sskel::mix_seed(job.master_seed, next))) {
          refused = true;
          break;
        }
        ++next;
        ++submitted;
      }
      if (refused) {
        if (burst > 1) burst /= 2;
      } else if (submitted == burst &&
                 burst < static_cast<std::int64_t>(kWindow)) {
        burst = std::min<std::int64_t>(burst * 2,
                                       static_cast<std::int64_t>(kWindow));
      }
      if (traced_collect(plane, sink) == 0 && submitted == 0) {
        std::this_thread::yield();
      }
    }
    plane.stream_end();
    plane.export_service_fields(job_state.summary);
    encode();  // job boundary
  }
  out.wall_seconds = seconds_between(start, now_ns());
  for (const sskel::JobCheckpoint& job : state.jobs) {
    out.job_digests.push_back(summary_digest(job.summary));
  }
  return out;
}

/// Removes the checkpoint directory however the run ends.
struct StateDir {
  std::filesystem::path path;
  explicit StateDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::create_directories(path);
  }
  ~StateDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  StateDir(const StateDir&) = delete;
  StateDir& operator=(const StateDir&) = delete;
};

}  // namespace

Result run_fleet(const Args& args) {
  Result result;
  const unsigned tiles = plan_tiles(result);
  const sskel::PartitionParams params = partition_params();
  const StateDir state_dir(std::filesystem::path(".bench_build") /
                           "perfbench" /
                           ("fleet-state-" + std::to_string(::getpid())));

  ChunkClock clock;
  sskel::CampaignOptions options;
  options.plane.tiles = tiles;
  options.window = kWindow;
  options.checkpoint_every = kCheckpointEvery;
  options.state_dir = state_dir.path.string();
  options.progress_every = kProgressEvery;
  options.on_progress = [&clock](const sskel::CampaignProgress& p) {
    clock.record(p);
  };

  // Set-up: scenario construction; a warm-up engine that starts its
  // plane and folds one checkpoint interval of fixed-seed trials; the
  // timed engine's construction. The warm-up engine is gone before the
  // timed runs, so its idle tiles do not spin beside them. The engine
  // keeps its planes private, so the timed engine starts its own plane
  // (3 threads) and fills its intern shards in its first timed run.
  std::vector<double> setup_s;
  std::shared_ptr<const sskel::ScenarioFactory> scenario;
  std::unique_ptr<CampaignEngine> engine;
  for (int rep = 0; rep < setup_reps(args); ++rep) {
    engine.reset();
    scenario.reset();
    const std::int64_t t0 = now_ns();
    scenario = std::make_shared<sskel::PartitionScenario>(params);
    auto warm_engine = std::make_unique<CampaignEngine>(
        make_spec(scenario, kWarmupSeed, 1, kWarmupTrials), options);
    clock.start_run();
    const CampaignResult warm = warm_engine->run();
    warm_engine.reset();
    engine = std::make_unique<CampaignEngine>(
        make_spec(scenario, args.seed, kJobs, kTrialsPerJob), options);
    setup_s.push_back(seconds_between(t0, now_ns()));
    result.attempted += warm.stats.trials_folded;
    result.failed += warm.completed ? failed_trials(warm, kK)
                                    : warm.stats.trials_folded;
    if (rep == 0) {
      const sskel::McSummary& first = warm.summaries.front();
      result.note("tiles", std::to_string(first.tiles));
      result.note("placement",
                  first.tile_placement.empty() ? "unpinned"
                                               : first.tile_placement);
      result.note("failed_pins", std::to_string(first.failed_pins));
    }
  }
  result.note("jobs", std::to_string(kJobs) + "x" +
                          std::to_string(kTrialsPerJob) + " trials");

  std::vector<std::uint64_t> reference;
  const auto min_chunks = static_cast<std::size_t>(min_trials(args));
  if (!args.trace) {
    clock.active = true;
    const RunLoop loop = run_engine(*engine, clock, args.seconds, min_chunks,
                                    reference, result);
    result.note("fold_digest", hex(combined_digest(reference)));
    result.note("campaign_runs", std::to_string(loop.runs));
    EndToEnd e2e;
    e2e.trials_per_s = loop.trials_per_s();
    e2e.trial_ms = clock.trial_ms;
    e2e.setup_s = setup_s;
    e2e.peak_rss_mb = peak_rss_mb();
    add_end_to_end(result, e2e);
    return result;
  }

  const RunLoop untraced =
      run_engine(*engine, clock, args.seconds / 2.0, 0, reference, result);
  engine.reset();
  result.note("fold_digest", hex(combined_digest(reference)));

  const sskel::PartitionParams source_params = params;
  const TracedSimScenario twin(*scenario, [source_params](std::uint64_t seed) {
    return std::make_unique<sskel::PartitionSource>(seed, source_params);
  });
  sskel::McPlaneOptions plane_options;
  plane_options.tiles = tiles;
  McTilePlane plane(twin, plane_options);
  const MirrorOutcome warm =
      run_mirror(plane, make_spec(scenario, kWarmupSeed, 1, kWarmupTrials));
  result.attempted += warm.trials;
  result.failed += warm.failed;
  reset();

  const CampaignSpec spec = make_spec(scenario, args.seed, kJobs, kTrialsPerJob);
  MirrorOutcome traced;
  std::int64_t passes = 0;
  const std::int64_t start = now_ns();
  const auto deadline =
      start + static_cast<std::int64_t>(args.seconds / 2.0 * 1e9);
  while (passes == 0 || now_ns() < deadline) {
    const MirrorOutcome pass = run_mirror(plane, spec);
    result.attempted += pass.trials;
    result.failed += pass.failed;
    if (pass.job_digests != reference) result.fidelity_ok = false;
    traced.trials += pass.trials;
    traced.busy_ns += pass.busy_ns;
    traced.wall_seconds += pass.wall_seconds;
    traced.counts += pass.counts;
    ++passes;
  }
  const TraceTotals spans = totals();
  result.note("traced_passes", std::to_string(passes));

  PerLayer layer;
  traced.counts.fill(layer);
  fill_plane_layer(layer, spans, plane, {}, traced.trials, traced.busy_ns,
                   traced.wall_seconds);
  // What the engine reports itself comes from its own runs; the mirror
  // gives only the timed calls and the tile-side busy time.
  const auto runs = static_cast<double>(untraced.runs);
  layer.checkpoint_stall_ms = untraced.stall_seconds * 1e3 / runs;
  layer.checkpoints_written = static_cast<double>(untraced.checkpoints) / runs;
  layer.submit_stalls = static_cast<double>(untraced.submit_stalls) / runs;
  layer.result_stalls = static_cast<double>(untraced.result_stalls) / runs;
  layer.burst_grows = static_cast<double>(untraced.burst_grows) / runs;
  layer.burst_shrinks = static_cast<double>(untraced.burst_shrinks) / runs;
  layer.intern_hit_share = hit_share(untraced.last_summary.intern);
  layer.peak_proc_set_mb =
      static_cast<double>(untraced.last_summary.peak_proc_set_bytes) /
      (1024.0 * 1024.0);
  const double traced_rate =
      static_cast<double>(traced.trials) / traced.wall_seconds;
  layer.throughput_ratio = traced_rate / untraced.trials_per_s();
  result.note("untraced_trials_per_s",
              std::to_string(untraced.trials_per_s()));
  result.note("traced_trials_per_s", std::to_string(traced_rate));
  add_per_layer(result, layer, spans);
  return result;
}

}  // namespace perfbench
