// The SSKC campaign-checkpoint container (DESIGN.md §15): canonical
// round-trips over empty and real folded state, plus the hostile-input
// sweeps every codec in this repo gets — truncation at every byte
// boundary, single-bit flips over the whole encoding, structural
// corruption of the magic/version/frame scaffolding — all of which
// must end in a DecodeError, never an abort, OOM or OOB access. SSKC
// is held to the strong canonicality law: any accepted byte string
// re-encodes to itself.
#include "campaign/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "adversary/partition.hpp"
#include "mc/scenario.hpp"
#include "util/rng.hpp"

namespace sskel {
namespace {

/// A checkpoint with real folded state, so accumulators, histograms,
/// the scenario string and the runs == trials_folded invariant are
/// all live (jobs fold different trial counts to keep them distinct).
CampaignCheckpoint sample_checkpoint(std::size_t jobs,
                                     std::int64_t base_trials) {
  PartitionParams params;
  params.blocks = even_blocks(4, 2);
  const PartitionScenario scenario(std::move(params));
  KSetRunConfig config;
  config.k = 2;

  CampaignCheckpoint checkpoint;
  checkpoint.spec_fingerprint = 0x5353'4b43'0000'0001ull;
  for (std::size_t j = 0; j < jobs; ++j) {
    JobCheckpoint job;
    job.summary.scenario = scenario.name();
    job.summary.bytes_measured = config.measure_bytes;
    const std::int64_t trials = base_trials + static_cast<std::int64_t>(j);
    for (std::int64_t t = 0; t < trials; ++t) {
      const ScenarioTrial trial = scenario.run_trial(
          mix_seed(0xFEED + j, static_cast<std::uint64_t>(t)), config);
      fold_scenario_trial(job.summary, trial, config);
      ++job.trials_folded;
    }
    checkpoint.jobs.push_back(std::move(job));
  }
  return checkpoint;
}

/// Walks the frame sequence and returns the byte offset of frame
/// `index`'s payload (after its type byte and length varint). Used to
/// tamper with specific fields without hardcoding offsets.
std::size_t frame_payload_offset(const std::vector<std::uint8_t>& bytes,
                                 std::size_t index) {
  auto read_varint_at = [&](std::size_t& pos) {
    std::uint64_t value = 0;
    int shift = 0;
    while (true) {
      const std::uint8_t byte = bytes.at(pos++);
      value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return value;
      shift += 7;
    }
  };
  std::size_t pos = 4;           // magic
  (void)read_varint_at(pos);     // version
  for (std::size_t f = 0;; ++f) {
    ++pos;                       // frame type
    const std::uint64_t len = read_varint_at(pos);
    if (f == index) return pos;
    pos += len;
  }
}

TEST(CheckpointCodecTest, EmptyRoundTripIsCanonical) {
  CampaignCheckpoint empty;
  empty.spec_fingerprint = 0xABCDEF;
  const std::vector<std::uint8_t> bytes = encode_checkpoint(empty);
  DecodeResult<CampaignCheckpoint> back = decode_checkpoint(bytes);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  EXPECT_EQ(back.value().spec_fingerprint, 0xABCDEFu);
  EXPECT_TRUE(back.value().jobs.empty());
  EXPECT_EQ(encode_checkpoint(back.value()), bytes);
}

TEST(CheckpointCodecTest, FoldedStateRoundTripsBitExactly) {
  const CampaignCheckpoint checkpoint = sample_checkpoint(2, 5);
  const std::vector<std::uint8_t> bytes = encode_checkpoint(checkpoint);
  DecodeResult<CampaignCheckpoint> back = decode_checkpoint(bytes);
  ASSERT_TRUE(back.ok()) << back.error().to_string();
  ASSERT_EQ(back.value().jobs.size(), checkpoint.jobs.size());
  EXPECT_EQ(back.value().spec_fingerprint, checkpoint.spec_fingerprint);
  for (std::size_t j = 0; j < checkpoint.jobs.size(); ++j) {
    EXPECT_EQ(back.value().jobs[j].trials_folded,
              checkpoint.jobs[j].trials_folded);
    // Bit-equality of every trial-derived summary field, through the
    // same projection the campaign's resume gate uses.
    EXPECT_EQ(encode_summary_trial_fields(back.value().jobs[j].summary),
              encode_summary_trial_fields(checkpoint.jobs[j].summary));
  }
  EXPECT_EQ(encode_checkpoint(back.value()), bytes);
}

TEST(CheckpointCodecTest, ExtremeFingerprintRoundTrips) {
  CampaignCheckpoint checkpoint;
  checkpoint.spec_fingerprint = ~0ull;
  const std::vector<std::uint8_t> bytes = encode_checkpoint(checkpoint);
  DecodeResult<CampaignCheckpoint> back = decode_checkpoint(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().spec_fingerprint, ~0ull);
}

TEST(CheckpointCodecTest, TruncationAtEveryPrefixRejected) {
  // A checkpoint is only complete at its kEnd frame, so every proper
  // prefix must be rejected (and must not crash while being rejected).
  const std::vector<std::uint8_t> bytes =
      encode_checkpoint(sample_checkpoint(2, 4));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> prefix(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
    DecodeResult<CampaignCheckpoint> result = decode_checkpoint(prefix);
    EXPECT_FALSE(result.ok()) << "prefix length " << len;
  }
}

TEST(CheckpointCodecTest, SingleBitFlipsRejectedOrCanonical) {
  // Flipping any single bit either produces a rejected byte string or
  // another valid checkpoint — and in the latter case the canonicality
  // law still holds: the mutant re-encodes to exactly itself.
  const std::vector<std::uint8_t> bytes =
      encode_checkpoint(sample_checkpoint(1, 6));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutant = bytes;
      mutant[i] = static_cast<std::uint8_t>(mutant[i] ^ (1u << bit));
      DecodeResult<CampaignCheckpoint> result = decode_checkpoint(mutant);
      if (result.ok()) {
        EXPECT_EQ(encode_checkpoint(result.value()), mutant)
            << "byte " << i << " bit " << bit;
      }
    }
  }
}

TEST(CheckpointCodecTest, BadMagicRejected) {
  const std::vector<std::uint8_t> bytes =
      encode_checkpoint(CampaignCheckpoint{});
  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<std::uint8_t> mutant = bytes;
    mutant[i] = static_cast<std::uint8_t>(mutant[i] + 1);
    EXPECT_FALSE(decode_checkpoint(mutant).ok()) << "magic byte " << i;
  }
}

TEST(CheckpointCodecTest, WrongVersionRejected) {
  std::vector<std::uint8_t> bytes = encode_checkpoint(CampaignCheckpoint{});
  ASSERT_EQ(bytes[4], 1);  // version varint, single byte
  for (const std::uint8_t version : {std::uint8_t{0}, std::uint8_t{2}}) {
    std::vector<std::uint8_t> mutant = bytes;
    mutant[4] = version;
    EXPECT_FALSE(decode_checkpoint(mutant).ok())
        << "version " << int(version);
  }
}

TEST(CheckpointCodecTest, TrailingBytesRejected) {
  std::vector<std::uint8_t> bytes =
      encode_checkpoint(sample_checkpoint(1, 3));
  bytes.push_back(0x00);
  EXPECT_FALSE(decode_checkpoint(bytes).ok());
}

TEST(CheckpointCodecTest, RunsTrialsFoldedMismatchRejected) {
  // The kJob invariant: the folded-trials count in the frame must
  // equal summary.runs in the body. Bump the count varint (frame 1 is
  // the first kJob; its payload starts with trials_folded) and the
  // decoder must refuse — a checkpoint claiming more folded trials
  // than its summary absorbed would resume into silent corruption.
  const std::vector<std::uint8_t> bytes =
      encode_checkpoint(sample_checkpoint(1, 3));
  const std::size_t job_payload = frame_payload_offset(bytes, 1);
  ASSERT_EQ(bytes[job_payload], 3);  // trials_folded = 3, one varint byte
  std::vector<std::uint8_t> mutant = bytes;
  mutant[job_payload] = 4;
  EXPECT_FALSE(decode_checkpoint(mutant).ok());
}

TEST(CheckpointCodecTest, FrameFieldErrorsPointAtTheField) {
  // A header frame {type 1, length 4} whose job count, 2^16 + 1, is one
  // above the cap. The offset must land on the job-count varint (byte
  // 8), past the frame's type byte and its length varint.
  const std::vector<std::uint8_t> bytes = {
      'S', 'S', 'K', 'C', 1,   // magic, version
      1, 4,                    // frame type kHeader, payload length
      0,                       // spec fingerprint
      0x81, 0x80, 0x04};       // job count 65537
  const DecodeResult<CampaignCheckpoint> r = decode_checkpoint(bytes);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().status, DecodeStatus::kValueOutOfRange);
  EXPECT_EQ(r.error().offset, 8u);
  EXPECT_STREQ(r.error().field, "job count");
}

TEST(CheckpointCodecTest, Fnv1a64KnownVectors) {
  EXPECT_EQ(fnv1a64({}), 14695981039346656037ull);
  EXPECT_EQ(fnv1a64({'a'}), 0xaf63dc4c8601ec8cull);
  // Digest inequality is the CLI's "different fold" signal.
  EXPECT_NE(fnv1a64({1, 2, 3}), fnv1a64({1, 2, 4}));
}

TEST(CheckpointCodecTest, TrialFieldProjectionSeparatesFolds) {
  // Summaries that folded different trials must project to different
  // bytes; the same fold must project identically.
  const CampaignCheckpoint a = sample_checkpoint(1, 4);
  const CampaignCheckpoint b = sample_checkpoint(1, 4);
  const CampaignCheckpoint c = sample_checkpoint(1, 5);
  EXPECT_EQ(encode_summary_trial_fields(a.jobs[0].summary),
            encode_summary_trial_fields(b.jobs[0].summary));
  EXPECT_NE(encode_summary_trial_fields(a.jobs[0].summary),
            encode_summary_trial_fields(c.jobs[0].summary));
}

}  // namespace
}  // namespace sskel
