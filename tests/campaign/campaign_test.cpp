// The checkpointed campaign engine (DESIGN.md §15): kill + resume
// lands bit-identically on the uninterrupted run across tile counts
// and kill points (including a job boundary), torn checkpoint files
// fall back to the surviving twin, misbehaving trials self-archive as
// replayable SSKT captures, the spec parser accepts the documented
// grammar and rejects everything else, and streaming progress records
// tick monotonically.
#include "campaign/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "adversary/crash.hpp"
#include "adversary/partition.hpp"
#include "campaign/spec.hpp"
#include "kset/runner.hpp"
#include "rounds/graph_source.hpp"
#include "rounds/trace.hpp"
#include "util/rng.hpp"

namespace sskel {
namespace {

namespace fs = std::filesystem;

/// Scratch directory helper: fresh on construction, removed on
/// destruction, so failed tests cannot poison later ones.
struct ScratchDir {
  explicit ScratchDir(const char* name) : path(fs::path(".") / name) {
    fs::remove_all(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  fs::path path;
};

std::shared_ptr<PartitionScenario> make_partition_scenario() {
  PartitionParams params;
  params.blocks = even_blocks(4, 2);
  params.cross_noise_probability = 0.0;
  params.stabilization_round = 1;
  return std::make_shared<PartitionScenario>(std::move(params));
}

/// A two-job spec (different scenarios, different trial counts) so
/// kill points can land inside either job or exactly on the boundary.
CampaignSpec two_job_spec() {
  CampaignSpec spec;
  spec.config.k = 2;
  spec.jobs.push_back(CampaignJob{"conv", make_partition_scenario(), 42, 60});
  spec.jobs.push_back(CampaignJob{
      "cr", std::make_shared<CrashScenario>(5, 1, 3), 7, 40});
  return spec;
}

std::vector<std::vector<std::uint8_t>> job_digests(
    const CampaignResult& result) {
  std::vector<std::vector<std::uint8_t>> out;
  for (const McSummary& summary : result.summaries) {
    out.push_back(encode_summary_trial_fields(summary));
  }
  return out;
}

TEST(CampaignTest, UninterruptedRunMatchesBatchPlane) {
  // The campaign's streaming scheduler must fold exactly what one
  // McTilePlane::run batch folds, job by job.
  const CampaignSpec spec = two_job_spec();
  CampaignEngine engine(spec, CampaignOptions{});
  const CampaignResult result = engine.run();
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.summaries.size(), 2u);

  for (std::size_t j = 0; j < spec.jobs.size(); ++j) {
    McTilePlane plane(*spec.jobs[j].scenario, McPlaneOptions{});
    const McSummary batch =
        plane.run(spec.jobs[j].master_seed,
                  static_cast<int>(spec.jobs[j].trials), spec.config);
    EXPECT_EQ(encode_summary_trial_fields(result.summaries[j]),
              encode_summary_trial_fields(batch))
        << "job " << spec.jobs[j].name;
  }
}

TEST(CampaignTest, KillResumeBitIdenticalAcrossTilesAndKillPoints) {
  const CampaignSpec spec = two_job_spec();

  // Uninterrupted reference fold, single plane per job.
  CampaignEngine reference_engine(spec, CampaignOptions{});
  const auto reference = job_digests(reference_engine.run());

  // Kill points inside job 0, at the exact job boundary (60), inside
  // job 1, and one trial before the natural end.
  for (const unsigned tiles : {1u, 2u, 4u}) {
    for (const std::int64_t kill : {1, 17, 60, 73, 99}) {
      ScratchDir state("campaign_test.kill");
      CampaignOptions killed_options;
      killed_options.plane.tiles = tiles;
      killed_options.checkpoint_every = 7;  // boundaries off the kill grid
      killed_options.state_dir = state.path.string();
      killed_options.stop_after_trials = kill;
      CampaignEngine killed(spec, killed_options);
      const CampaignResult interrupted = killed.run();
      EXPECT_FALSE(interrupted.completed);
      EXPECT_EQ(interrupted.stats.trials_folded, kill);

      CampaignOptions resume_options = killed_options;
      resume_options.stop_after_trials = -1;
      CampaignEngine resumer(spec, resume_options);
      const CampaignResult resumed = resumer.resume();
      ASSERT_TRUE(resumed.completed);
      EXPECT_EQ(resumed.stats.trials_folded,
                spec.jobs[0].trials + spec.jobs[1].trials - kill);
      EXPECT_EQ(job_digests(resumed), reference)
          << "tiles=" << tiles << " kill=" << kill;
    }
  }
}

TEST(CampaignTest, ResumeWithoutCheckpointRunsFresh) {
  ScratchDir state("campaign_test.fresh");
  const CampaignSpec spec = two_job_spec();
  CampaignEngine reference_engine(spec, CampaignOptions{});
  const auto reference = job_digests(reference_engine.run());

  CampaignOptions options;
  options.state_dir = state.path.string();
  CampaignEngine engine(spec, options);
  const CampaignResult result = engine.resume();
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(job_digests(result), reference);
}

/// Folds `trials` partition trials into a single-job checkpoint — a
/// real folded prefix, as the engine would snapshot it.
CampaignCheckpoint folded_prefix(std::uint64_t fingerprint,
                                 std::int64_t trials) {
  const auto scenario = make_partition_scenario();
  KSetRunConfig config;
  config.k = 2;
  CampaignCheckpoint checkpoint;
  checkpoint.spec_fingerprint = fingerprint;
  JobCheckpoint job;
  job.summary.scenario = scenario->name();
  job.summary.bytes_measured = config.measure_bytes;
  for (std::int64_t t = 0; t < trials; ++t) {
    fold_scenario_trial(
        job.summary,
        scenario->run_trial(mix_seed(42, static_cast<std::uint64_t>(t)),
                            config),
        config);
    ++job.trials_folded;
  }
  checkpoint.jobs.push_back(std::move(job));
  return checkpoint;
}

TEST(CampaignTest, WriterAlternatesSlotsAndFallsBackFromTornFile) {
  ScratchDir state("campaign_test.writer");
  const fs::path file_a = state.path / CheckpointWriter::kFileA;
  const fs::path file_b = state.path / CheckpointWriter::kFileB;
  {
    CheckpointWriter writer(state.path);
    writer.offer(folded_prefix(0xF00D, 5));
    writer.flush();
    EXPECT_TRUE(fs::exists(file_a));   // first generation → slot a
    EXPECT_FALSE(fs::exists(file_b));
    writer.offer(folded_prefix(0xF00D, 10));
    writer.flush();
    EXPECT_TRUE(fs::exists(file_b));   // second generation → slot b
    EXPECT_EQ(writer.checkpoints_written(), 2);
  }

  const auto latest = CheckpointWriter::load_latest(state.path);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->jobs[0].trials_folded, 10);  // newest wins

  // Tear the newest generation mid-write: load_latest must skip the
  // corrupt file and fall back to the surviving twin.
  fs::resize_file(file_b, fs::file_size(file_b) / 2);
  const auto fallback = CheckpointWriter::load_latest(state.path);
  ASSERT_TRUE(fallback.has_value());
  EXPECT_EQ(fallback->jobs[0].trials_folded, 5);

  // Both generations torn: no checkpoint, never an error.
  fs::resize_file(file_a, 3);
  EXPECT_FALSE(CheckpointWriter::load_latest(state.path).has_value());
}

TEST(CampaignTest, CoalescingKeepsOnlyTheFreshestSnapshot) {
  ScratchDir state("campaign_test.coalesce");
  CheckpointWriter writer(state.path);
  // Burst of offers: the writer may persist any prefix of them, but
  // after flush the latest must be what load_latest sees, and
  // writes + coalesces must account for every offer.
  for (std::int64_t trials = 1; trials <= 8; ++trials) {
    writer.offer(folded_prefix(0xC0A1, trials));
  }
  writer.flush();
  EXPECT_EQ(writer.checkpoints_written() + writer.checkpoints_coalesced(), 8);
  const auto latest = CheckpointWriter::load_latest(state.path);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->jobs[0].trials_folded, 8);
}

TEST(CampaignTest, LoadLatestPrefersTheMatchingFingerprint) {
  ScratchDir state("campaign_test.fpmatch");
  {
    CheckpointWriter writer(state.path);
    // A stale checkpoint from a previous spec with *more* folded
    // trials, then the current spec's with fewer.
    writer.offer(folded_prefix(0xAAAA, 20));
    writer.flush();
    writer.offer(folded_prefix(0xBBBB, 5));
    writer.flush();
  }

  // No expectation: plain newest-by-folded-count wins (the stale one).
  const auto plain = CheckpointWriter::load_latest(state.path);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->spec_fingerprint, 0xAAAAu);

  // With the expected fingerprint, the matching generation wins even
  // though it folded fewer trials.
  const auto matched = CheckpointWriter::load_latest(state.path, 0xBBBB);
  ASSERT_TRUE(matched.has_value());
  EXPECT_EQ(matched->spec_fingerprint, 0xBBBBu);
  EXPECT_EQ(matched->jobs[0].trials_folded, 5);

  // No generation matches: fall back to newest-wins so the caller
  // can observe the mismatch and refuse.
  const auto mismatch = CheckpointWriter::load_latest(state.path, 0xCCCC);
  ASSERT_TRUE(mismatch.has_value());
  EXPECT_EQ(mismatch->spec_fingerprint, 0xAAAAu);
}

TEST(CampaignTest, RunClearsStaleCheckpointsFromAPreviousSpec) {
  // Reuse one state dir across specs: an interrupted run of spec A
  // leaves a checkpoint with many folded trials; a fresh run() of
  // spec B must clear it, so a later resume() of B continues from
  // B's own (smaller) checkpoint instead of tripping over A's.
  ScratchDir state("campaign_test.stale");
  const CampaignSpec old_spec = two_job_spec();
  CampaignOptions options;
  options.state_dir = state.path.string();
  options.checkpoint_every = 7;
  options.stop_after_trials = 90;
  {
    CampaignEngine old_engine(old_spec, options);
    EXPECT_FALSE(old_engine.run().completed);
  }

  CampaignSpec new_spec = two_job_spec();
  new_spec.jobs[1].trials = 20;  // different spec, different fingerprint
  CampaignOptions killed_options = options;
  killed_options.stop_after_trials = 30;
  // Cadence off: the killed run writes exactly one generation (the
  // kill snapshot), so without the stale-file handling the old spec's
  // checkpoint would survive in the other slot with more folded
  // trials and shadow it.
  killed_options.checkpoint_every = 0;
  {
    CampaignEngine killed(new_spec, killed_options);
    EXPECT_FALSE(killed.run().completed);
  }

  CampaignEngine reference_engine(new_spec, CampaignOptions{});
  const auto reference = job_digests(reference_engine.run());
  CampaignOptions resume_options = options;
  resume_options.stop_after_trials = -1;
  CampaignEngine resumer(new_spec, resume_options);
  const CampaignResult resumed = resumer.resume();
  ASSERT_TRUE(resumed.completed);
  EXPECT_EQ(job_digests(resumed), reference);
}

TEST(CampaignTest, TornNewestCheckpointStillResumesBitIdentical) {
  const CampaignSpec spec = two_job_spec();
  ScratchDir state("campaign_test.torn");
  CampaignOptions options;
  options.checkpoint_every = 5;
  options.state_dir = state.path.string();
  options.stop_after_trials = 73;
  CampaignEngine killed(spec, options);
  (void)killed.run();

  // Tear whichever file load_latest would pick. Resume must fall back
  // to the surviving generation (or a fresh run if none survives) and
  // still land bit-identically — it just re-folds more trials.
  auto folded = [](const fs::path& file) -> std::int64_t {
    std::ifstream in(file, std::ios::binary);
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    const DecodeResult<CampaignCheckpoint> ckpt = decode_checkpoint(bytes);
    if (!ckpt.ok()) return -1;
    std::int64_t total = 0;
    for (const JobCheckpoint& job : ckpt.value().jobs) {
      total += job.trials_folded;
    }
    return total;
  };
  const fs::path file_a = state.path / CheckpointWriter::kFileA;
  const fs::path file_b = state.path / CheckpointWriter::kFileB;
  const fs::path newest =
      (fs::exists(file_b) && folded(file_b) > folded(file_a)) ? file_b
                                                              : file_a;
  ASSERT_TRUE(fs::exists(newest));
  fs::resize_file(newest, fs::file_size(newest) / 2);

  CampaignEngine reference_engine(spec, CampaignOptions{});
  const auto reference = job_digests(reference_engine.run());
  CampaignOptions resume_options;
  resume_options.state_dir = state.path.string();
  CampaignEngine resumer(spec, resume_options);
  const CampaignResult resumed = resumer.resume();
  ASSERT_TRUE(resumed.completed);
  EXPECT_EQ(job_digests(resumed), reference);
}

TEST(CampaignTest, SpecFingerprintSeparatesCampaigns) {
  const CampaignSpec a = two_job_spec();
  CampaignSpec b = two_job_spec();
  b.jobs[1].trials += 1;
  CampaignSpec c = two_job_spec();
  c.config.k = 1;
  EXPECT_EQ(a.fingerprint(), two_job_spec().fingerprint());
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(CampaignTest, SpecFingerprintCoversScenarioParameters) {
  // Same scenario classes (name() and n() identical) but different
  // constructor parameters must fingerprint apart — otherwise a
  // resume folds trials from a different distribution onto the old
  // prefix without anyone noticing.
  const CampaignSpec a = two_job_spec();

  CampaignSpec more_crashes = two_job_spec();
  more_crashes.jobs[1].scenario = std::make_shared<CrashScenario>(5, 2, 3);
  EXPECT_NE(a.fingerprint(), more_crashes.fingerprint());

  CampaignSpec later_crashes = two_job_spec();
  later_crashes.jobs[1].scenario = std::make_shared<CrashScenario>(5, 1, 4);
  EXPECT_NE(a.fingerprint(), later_crashes.fingerprint());

  CampaignSpec noisy = two_job_spec();
  {
    PartitionParams params;
    params.blocks = even_blocks(4, 2);
    params.cross_noise_probability = 0.5;
    params.stabilization_round = 1;
    noisy.jobs[0].scenario =
        std::make_shared<PartitionScenario>(std::move(params));
  }
  EXPECT_NE(a.fingerprint(), noisy.fingerprint());

  CampaignSpec reblocked = two_job_spec();
  {
    PartitionParams params;
    params.blocks = even_blocks(4, 1);  // one block instead of two
    params.cross_noise_probability = 0.0;
    params.stabilization_round = 1;
    reblocked.jobs[0].scenario =
        std::make_shared<PartitionScenario>(std::move(params));
  }
  EXPECT_NE(a.fingerprint(), reblocked.fingerprint());
}

TEST(CampaignTest, ViolatingTrialsSelfArchiveAndReplayBitExact) {
  // k = 1 on a stable two-block partition: every trial decides two
  // distinct values, so every trial is an agreement violation.
  ScratchDir artifacts("campaign_test.artifacts");
  CampaignSpec spec;
  spec.config.k = 1;
  spec.jobs.push_back(CampaignJob{"viol", make_partition_scenario(), 11, 5});

  CampaignOptions options;
  options.artifact_dir = artifacts.path.string();
  options.max_artifacts = 3;
  CampaignEngine engine(spec, options);
  const CampaignResult result = engine.run();
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.summaries[0].agreement_violations, 5);
  EXPECT_EQ(result.stats.violations_detected, 5);
  EXPECT_EQ(result.stats.artifacts_captured, 3);  // capped

  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(artifacts.path)) {
    files.push_back(entry.path());
  }
  ASSERT_EQ(files.size(), 3u);

  for (const fs::path& file : files) {
    // Filenames carry job, trial index and reason.
    const std::string name = file.filename().string();
    EXPECT_EQ(name.rfind("viol-trial-", 0), 0u) << name;
    EXPECT_NE(name.find("-agreement.sskt"), std::string::npos) << name;

    std::ifstream in(file, std::ios::binary);
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    DecodeResult<RunCapture> capture = decode_trace(bytes);
    ASSERT_TRUE(capture.ok()) << capture.error().to_string();

    // The capture replays to the same run the campaign folded: replay
    // the recorded graphs and re-run the original source at the
    // trial's seed; both reports must agree bit-for-bit.
    const std::size_t idx_begin = std::string("viol-trial-").size();
    const std::uint64_t index = std::stoull(name.substr(idx_begin));
    const std::uint64_t seed = mix_seed(11, index);
    EXPECT_EQ(capture.value().header.seed, seed);

    ScheduleSource replay(capture.value().graphs);
    const KSetRunReport replayed = run_kset(replay, spec.config);

    const auto direct =
        spec.jobs[0].scenario->capture_trial(seed, spec.config);
    ASSERT_TRUE(direct.has_value());
    EXPECT_EQ(encode_trace(*direct), bytes);

    EXPECT_FALSE(replayed.verdict.k_agreement);
    EXPECT_EQ(replayed.distinct_values, 2);
    EXPECT_EQ(replayed.n, 4);
  }
}

TEST(CampaignTest, ProgressRecordsTickMonotonically) {
  CampaignSpec spec;
  spec.config.k = 2;
  spec.jobs.push_back(CampaignJob{"conv", make_partition_scenario(), 5, 25});

  std::vector<CampaignProgress> seen;
  CampaignOptions options;
  options.progress_every = 10;
  options.on_progress = [&](const CampaignProgress& p) { seen.push_back(p); };
  CampaignEngine engine(spec, options);
  const CampaignResult result = engine.run();
  ASSERT_TRUE(result.completed);

  // Records at 10 and 20 folded trials plus the final end-of-run one.
  ASSERT_GE(seen.size(), 3u);
  std::int64_t last = -1;
  for (const CampaignProgress& p : seen) {
    EXPECT_EQ(p.job, "conv");
    EXPECT_EQ(p.trials_total, 25);
    EXPECT_GE(p.campaign_trials_done, last);
    last = p.campaign_trials_done;
  }
  EXPECT_EQ(seen.back().campaign_trials_done, 25);
}

TEST(CampaignTest, TerminalProgressRecordReportsTheInterruptedJob) {
  // A kill inside job 0 must leave the final progress record on job 0
  // with its actual folded count — not on the last job of the spec,
  // which was never reached.
  const CampaignSpec spec = two_job_spec();
  std::vector<CampaignProgress> seen;
  CampaignOptions options;
  options.progress_every = 1000;  // only the terminal record fires
  options.on_progress = [&](const CampaignProgress& p) { seen.push_back(p); };
  options.stop_after_trials = 10;
  CampaignEngine engine(spec, options);
  EXPECT_FALSE(engine.run().completed);

  ASSERT_FALSE(seen.empty());
  const CampaignProgress& last = seen.back();
  EXPECT_EQ(last.job, "conv");
  EXPECT_EQ(last.job_index, 0);
  EXPECT_EQ(last.trials_done, 10);
  EXPECT_EQ(last.trials_total, 60);
  EXPECT_EQ(last.campaign_trials_done, 10);
}

TEST(CampaignSpecTest, ParsesTheDocumentedGrammar) {
  const std::string text =
      "# converged partition sweep\n"
      "k = 2\n"
      "guard = at-round-n\n"
      "max_rounds = 30\n"
      "measure_bytes = 1\n"
      "\n"
      "job = partition name=conv n=4 m=2 noise=0 stabilize=1 seed=42 "
      "trials=500\n"
      "job = random-psrcs name=rp n=6 k=2 roots=2 seed=7 trials=20\n"
      "job = crash name=cr n=5 crashes=1 maxcrash=3 seed=9 trials=20\n"
      "job = rotating name=rot n=4 hold=1 seed=3 trials=5\n";
  const SpecParseResult parsed = parse_campaign_spec(text);
  ASSERT_TRUE(parsed.spec.has_value()) << parsed.error;
  const CampaignSpec& spec = *parsed.spec;
  EXPECT_EQ(spec.config.k, 2);
  EXPECT_EQ(spec.config.guard, DecisionGuard::kAtRoundN);
  EXPECT_EQ(spec.config.max_rounds, 30);
  EXPECT_TRUE(spec.config.measure_bytes);
  ASSERT_EQ(spec.jobs.size(), 4u);
  EXPECT_EQ(spec.jobs[0].name, "conv");
  EXPECT_EQ(spec.jobs[0].master_seed, 42u);
  EXPECT_EQ(spec.jobs[0].trials, 500);
  EXPECT_EQ(spec.jobs[0].scenario->name(), "partition");
  EXPECT_EQ(spec.jobs[1].scenario->name(), "random-psrcs");
  EXPECT_EQ(spec.jobs[2].scenario->name(), "crash");
  EXPECT_EQ(spec.jobs[3].scenario->name(), "rotating-star");
}

TEST(CampaignSpecTest, RejectsBadInputWithLineNumbers) {
  const struct {
    const char* text;
    int line;
  } cases[] = {
      {"k = 0\njob = partition trials=5\n", 1},       // k out of range
      {"k = abc\njob = partition trials=5\n", 1},     // k not an integer
      {"k = 2\nmax_rounds = soon\n", 2},              // garbage int
      {"k = 2\nmax_rounds = -1\n", 2},                // negative rounds
      {"k = 2\ntail_rounds = 3x\n", 2},               // trailing junk
      {"k = 2\nmeasure_bytes = maybe\n", 2},          // bad bool
      {"k = 2\nbogus = 1\n", 2},                      // unknown config key
      {"k = 2\njob = warp trials=5\n", 2},            // unknown scenario
      {"k = 2\njob = partition n=4\n", 2},            // missing trials
      {"k = 2\njob = partition trials=5 warp=1\n", 2},  // unknown attr
      {"k = 2\nthis is not a key value line\n", 2},   // grammar
      {"k = 2\n", 0},                                 // no jobs at all
  };
  for (const auto& test_case : cases) {
    const SpecParseResult parsed = parse_campaign_spec(test_case.text);
    EXPECT_FALSE(parsed.spec.has_value()) << test_case.text;
    EXPECT_EQ(parsed.line, test_case.line) << test_case.text;
    EXPECT_FALSE(parsed.error.empty()) << test_case.text;
  }
}

}  // namespace
}  // namespace sskel
