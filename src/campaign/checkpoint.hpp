// SSKC — the framed campaign-checkpoint container (DESIGN.md §15).
//
// A checkpoint is the campaign's folded prefix: for every job, the
// partial McSummary over trials [0, trials_folded) plus that count.
// Because trial t's seed is mix_seed(master, t) and the fold is a left
// fold in trial order (fold_scenario_trial), the folded prefix *is*
// the complete resumable state — no RNG positions, no in-flight
// bookkeeping. Resume folds trial trials_folded onward on top of the
// decoded summary and lands bit-identically on the uninterrupted run.
//
// Wire format ("SSKC", version 1):
//
//   magic "SSKC" | varint version | frames...
//   frame  := type u8 | varint payload-length | payload
//   kHeader (1), exactly once, first:
//       varint spec-fingerprint | varint job-count
//   kJob (2), exactly job-count times, in job order:
//       varint trials-folded | summary body (see checkpoint.cpp)
//   kEnd (3), exactly once, last, empty payload
//
// The frame sequence is fully determined by the struct (fixed order,
// no optional frames), every varint is strict ULEB128, and doubles
// travel as raw 8-byte little-endian bit patterns — so the encoding
// is *byte-canonical*: decode(b) accepted implies encode(decode(b))
// == b, the law the SSKC fuzzer enforces (stronger than SSKT's
// idempotence law, and what lets CI diff checkpoint files byte-wise).
//
// Encoding trusts its caller (SSKEL_REQUIRE on malformed summaries);
// decoding trusts nothing — checkpoints are files that survive
// crashes, travel as CI artifacts, and feed fuzz corpora, so every
// field is bounds-checked and rejection is a DecodeError, never an
// abort or OOM.
#pragma once

#include <cstdint>
#include <vector>

#include "mc/montecarlo.hpp"
#include "util/decode.hpp"

namespace sskel {

/// One job's folded prefix: the partial summary over the first
/// `trials_folded` trials. Only trial-derived fields round-trip;
/// service-level fields (intern stats, memory marks, tile
/// provenance) are runtime observations, re-exported by whichever
/// plane finishes the job.
struct JobCheckpoint {
  McSummary summary;
  std::int64_t trials_folded = 0;
};

struct CampaignCheckpoint {
  /// CampaignSpec::fingerprint() of the spec that produced this
  /// checkpoint; resume refuses a checkpoint whose fingerprint does
  /// not match the spec it is asked to continue (folding trials of a
  /// different campaign would be silent corruption).
  std::uint64_t spec_fingerprint = 0;
  std::vector<JobCheckpoint> jobs;
};

/// Serializes a checkpoint (byte-canonical, see above).
[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint(
    const CampaignCheckpoint& checkpoint);

/// Decodes untrusted checkpoint bytes.
[[nodiscard]] DecodeResult<CampaignCheckpoint> decode_checkpoint(
    const std::vector<std::uint8_t>& bytes);

/// Serializes exactly the trial-derived fields of a summary — the
/// kJob body without the trials-folded prefix. This is the campaign's
/// bit-equality currency: two summaries fold-identical iff these
/// bytes are equal, so tests, the bench gate, and the CLI's digest
/// all compare through it (the service-level fields excluded here are
/// the same set the scheduler-equivalence tests exclude).
[[nodiscard]] std::vector<std::uint8_t> encode_summary_trial_fields(
    const McSummary& summary);

/// FNV-1a 64 over arbitrary bytes — the digest rendered by the
/// sskel_campaign CLI (over encode_summary_trial_fields) and the
/// fingerprint primitive used by CampaignSpec.
[[nodiscard]] std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes);

}  // namespace sskel
