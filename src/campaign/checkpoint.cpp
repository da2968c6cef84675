#include "campaign/checkpoint.hpp"

#include <bit>
#include <limits>

#include "util/varint.hpp"

namespace sskel {

namespace {

constexpr std::uint8_t kMagic[4] = {'S', 'S', 'K', 'C'};
constexpr std::uint64_t kVersion = 1;

enum class CkptFrame : std::uint8_t {
  kHeader = 1,
  kJob = 2,
  kEnd = 3,
};

constexpr std::uint64_t kMaxCount =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
/// Jobs are hand-written spec entries, not bulk data.
constexpr std::uint64_t kMaxJobs = 1u << 16;
constexpr std::uint64_t kMaxScenarioName = 256;

// --- encode side (trusted input) -----------------------------------

void put_frame(std::vector<std::uint8_t>& out, CkptFrame type,
               const std::vector<std::uint8_t>& payload) {
  out.push_back(static_cast<std::uint8_t>(type));
  put_varint(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
}

void put_count(std::vector<std::uint8_t>& out, std::int64_t value) {
  SSKEL_REQUIRE(value >= 0);
  put_varint(out, static_cast<std::uint64_t>(value));
}

/// Doubles travel as their exact 8-byte little-endian bit pattern:
/// canonical by construction, and every pattern (±inf in an empty
/// accumulator's extrema, NaN if one ever arose) round-trips bit-for-
/// bit — which is the whole point of a bit-exact resume.
void put_double(std::vector<std::uint8_t>& out, double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
}

void put_bool(std::vector<std::uint8_t>& out, bool value) {
  out.push_back(value ? 1 : 0);
}

/// Zigzag for histogram bucket values (int64, sign possible in
/// principle even though today's histograms count nonnegatives).
[[nodiscard]] std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] std::int64_t unzigzag(std::uint64_t z) {
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

void put_accumulator(std::vector<std::uint8_t>& out, const Accumulator& acc) {
  const Accumulator::State s = acc.state();
  put_count(out, s.count);
  put_double(out, s.mean);
  put_double(out, s.m2);
  put_double(out, s.sum);
  put_double(out, s.min);
  put_double(out, s.max);
}

void put_histogram(std::vector<std::uint8_t>& out, const IntHistogram& hist) {
  const auto& buckets = hist.buckets();
  put_varint(out, buckets.size());
  for (const auto& [value, count] : buckets) {
    put_varint(out, zigzag(value));
    put_count(out, count);
  }
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  SSKEL_REQUIRE(s.size() <= kMaxScenarioName);
  put_varint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

// --- decode side (untrusted input) ---------------------------------

[[nodiscard]] bool read_count(ByteReader& r, std::int64_t& out,
                              const char* field) {
  std::uint64_t v = 0;
  if (!r.read_varint_max(v, kMaxCount, field)) return false;
  out = static_cast<std::int64_t>(v);
  return true;
}

[[nodiscard]] bool read_double(ByteReader& r, double& out, const char* field) {
  if (!r.require_bytes(8, field)) return false;
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(r.cursor()[i]) << (8 * i);
  }
  r.skip(8);
  out = std::bit_cast<double>(bits);
  return true;
}

[[nodiscard]] bool read_bool(ByteReader& r, bool& out, const char* field) {
  std::uint8_t byte = 0;
  if (!r.read_u8(byte, field)) return false;
  // Accepting 2..255 would break canonicality (many encodings, one
  // value).
  if (byte > 1) return r.fail(DecodeStatus::kValueOutOfRange, field);
  out = byte != 0;
  return true;
}

[[nodiscard]] bool read_accumulator(ByteReader& r, Accumulator& out,
                                    const char* field) {
  Accumulator::State s;
  if (!read_count(r, s.count, field)) return false;
  if (!read_double(r, s.mean, field) || !read_double(r, s.m2, field) ||
      !read_double(r, s.sum, field) || !read_double(r, s.min, field) ||
      !read_double(r, s.max, field)) {
    return false;
  }
  out = Accumulator::from_state(s);
  return true;
}

[[nodiscard]] bool read_histogram(ByteReader& r, IntHistogram& out,
                                  const char* field) {
  // Each bucket needs at least 2 bytes, so remaining() over-bounds the
  // count without letting a hostile header demand a giant reserve.
  std::uint64_t buckets = 0;
  if (!r.read_varint_max(buckets, r.remaining(), field)) return false;
  std::vector<std::pair<std::int64_t, std::int64_t>> pairs;
  pairs.reserve(static_cast<std::size_t>(buckets));
  std::int64_t prev = 0;
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < buckets; ++i) {
    std::uint64_t z = 0;
    if (!r.read_varint(z, field)) return false;
    const std::int64_t value = unzigzag(z);
    // Strictly ascending values: the canonical (and only) bucket order
    // add() maintains.
    if (i > 0 && value <= prev) {
      return r.fail(DecodeStatus::kValueOutOfRange, field);
    }
    prev = value;
    std::int64_t count = 0;
    if (!read_count(r, count, field)) return false;
    if (count <= 0) return r.fail(DecodeStatus::kValueOutOfRange, field);
    total += static_cast<std::uint64_t>(count);
    // from_buckets recomputes the total with int64 arithmetic; reject
    // inputs that would overflow it.
    if (total > kMaxCount) {
      return r.fail(DecodeStatus::kValueOutOfRange, field);
    }
    pairs.emplace_back(value, count);
  }
  out = IntHistogram::from_buckets(std::move(pairs));
  return true;
}

[[nodiscard]] bool read_string(ByteReader& r, std::string& out,
                               const char* field) {
  std::uint64_t size = 0;
  if (!r.read_varint_max(size, kMaxScenarioName, field)) return false;
  if (!r.require_bytes(static_cast<std::size_t>(size), field)) return false;
  out.assign(reinterpret_cast<const char*>(r.cursor()),
             static_cast<std::size_t>(size));
  r.skip(static_cast<std::size_t>(size));
  return true;
}

[[nodiscard]] bool read_summary_trial_fields(ByteReader& r, McSummary& s) {
  if (!read_string(r, s.scenario, "scenario")) return false;
  if (!read_count(r, s.runs, "runs") ||
      !read_count(r, s.undecided_runs, "undecided runs") ||
      !read_count(r, s.agreement_violations, "agreement violations") ||
      !read_count(r, s.validity_violations, "validity violations") ||
      !read_count(r, s.bound_violations, "bound violations") ||
      !read_count(r, s.lemma_violation_runs, "lemma violation runs")) {
    return false;
  }
  if (!read_accumulator(r, s.distinct_values, "distinct values") ||
      !read_accumulator(r, s.root_components, "root components") ||
      !read_accumulator(r, s.last_decision_round, "last decision round") ||
      !read_accumulator(r, s.stabilization_round, "stabilization round") ||
      !read_accumulator(r, s.total_messages, "total messages")) {
    return false;
  }
  if (!read_bool(r, s.bytes_measured, "bytes measured")) return false;
  if (!read_accumulator(r, s.total_bytes, "total bytes") ||
      !read_accumulator(r, s.max_message_bytes, "max message bytes")) {
    return false;
  }
  if (!read_histogram(r, s.distinct_histogram, "distinct histogram") ||
      !read_histogram(r, s.root_histogram, "root histogram")) {
    return false;
  }
  if (!read_bool(r, s.net_backed, "net backed")) return false;
  if (!read_accumulator(r, s.late_messages, "late messages") ||
      !read_accumulator(r, s.lost_messages, "lost messages") ||
      !read_accumulator(r, s.wall_clock_ms, "wall clock ms")) {
    return false;
  }
  if (!read_count(r, s.credit_stalls, "credit stalls")) return false;
  return true;
}

}  // namespace

std::vector<std::uint8_t> encode_summary_trial_fields(
    const McSummary& summary) {
  std::vector<std::uint8_t> out;
  put_string(out, summary.scenario);
  put_count(out, summary.runs);
  put_count(out, summary.undecided_runs);
  put_count(out, summary.agreement_violations);
  put_count(out, summary.validity_violations);
  put_count(out, summary.bound_violations);
  put_count(out, summary.lemma_violation_runs);
  put_accumulator(out, summary.distinct_values);
  put_accumulator(out, summary.root_components);
  put_accumulator(out, summary.last_decision_round);
  put_accumulator(out, summary.stabilization_round);
  put_accumulator(out, summary.total_messages);
  put_bool(out, summary.bytes_measured);
  put_accumulator(out, summary.total_bytes);
  put_accumulator(out, summary.max_message_bytes);
  put_histogram(out, summary.distinct_histogram);
  put_histogram(out, summary.root_histogram);
  put_bool(out, summary.net_backed);
  put_accumulator(out, summary.late_messages);
  put_accumulator(out, summary.lost_messages);
  put_accumulator(out, summary.wall_clock_ms);
  put_count(out, summary.credit_stalls);
  return out;
}

std::vector<std::uint8_t> encode_checkpoint(
    const CampaignCheckpoint& checkpoint) {
  SSKEL_REQUIRE(checkpoint.jobs.size() <= kMaxJobs);
  std::vector<std::uint8_t> out(kMagic, kMagic + 4);
  put_varint(out, kVersion);

  std::vector<std::uint8_t> payload;
  put_varint(payload, checkpoint.spec_fingerprint);
  put_varint(payload, checkpoint.jobs.size());
  put_frame(out, CkptFrame::kHeader, payload);

  for (const JobCheckpoint& job : checkpoint.jobs) {
    SSKEL_REQUIRE(job.trials_folded >= 0);
    SSKEL_REQUIRE(job.summary.runs == job.trials_folded);
    payload.clear();
    put_count(payload, job.trials_folded);
    const std::vector<std::uint8_t> body =
        encode_summary_trial_fields(job.summary);
    payload.insert(payload.end(), body.begin(), body.end());
    put_frame(out, CkptFrame::kJob, payload);
  }

  payload.clear();
  put_frame(out, CkptFrame::kEnd, payload);
  return out;
}

DecodeResult<CampaignCheckpoint> decode_checkpoint(
    const std::vector<std::uint8_t>& bytes) {
  ByteReader reader(bytes.data(), bytes.size());
  if (!reader.require_bytes(4, "magic")) return reader.error();
  for (std::size_t i = 0; i < 4; ++i) {
    if (reader.cursor()[i] != kMagic[i]) {
      return DecodeError{DecodeStatus::kBadMagic, reader.pos() + i, "magic"};
    }
  }
  reader.skip(4);
  std::uint64_t version = 0;
  if (!reader.read_varint(version, "version")) return reader.error();
  if (version != kVersion) {
    return DecodeError{DecodeStatus::kBadVersion, reader.pos(), "version"};
  }

  CampaignCheckpoint c;
  bool have_header = false;
  bool have_end = false;
  std::uint64_t job_count = 0;
  while (!reader.at_end()) {
    if (have_end) {
      return DecodeError{DecodeStatus::kTrailingBytes, reader.pos(), "frame"};
    }
    const std::size_t frame_start = reader.pos();
    std::uint8_t type_byte = 0;
    if (!reader.read_u8(type_byte, "frame type")) return reader.error();
    std::uint64_t length = 0;
    if (!reader.read_varint(length, "frame length")) return reader.error();
    if (length > reader.remaining()) {
      return DecodeError{DecodeStatus::kLimitExceeded, frame_start,
                         "frame length"};
    }
    // Parse through a sub-reader confined to the declared length; a
    // frame whose fields consume more or fewer bytes is malformed.
    const std::size_t payload_start = reader.pos();
    ByteReader frame(reader.cursor(), static_cast<std::size_t>(length));
    reader.skip(static_cast<std::size_t>(length));
    const auto frame_error = [&](const DecodeError& err) {
      // Re-anchor sub-reader offsets to the whole input.
      return DecodeError{err.status, payload_start + err.offset, err.field};
    };
    const auto type = static_cast<CkptFrame>(type_byte);
    if (type != CkptFrame::kHeader && !have_header) {
      return DecodeError{DecodeStatus::kBadFrame, frame_start, "frame order"};
    }
    switch (type) {
      case CkptFrame::kHeader: {
        if (have_header) {
          return DecodeError{DecodeStatus::kBadFrame, frame_start,
                             "duplicate header"};
        }
        if (!frame.read_varint(c.spec_fingerprint, "spec fingerprint")) {
          return frame_error(frame.error());
        }
        if (!frame.read_varint_max(job_count, kMaxJobs, "job count")) {
          return frame_error(frame.error());
        }
        c.jobs.reserve(static_cast<std::size_t>(job_count));
        have_header = true;
        break;
      }
      case CkptFrame::kJob: {
        if (c.jobs.size() >= job_count) {
          return DecodeError{DecodeStatus::kBadFrame, frame_start,
                             "excess job frame"};
        }
        JobCheckpoint job;
        if (!read_count(frame, job.trials_folded, "trials folded") ||
            !read_summary_trial_fields(frame, job.summary)) {
          return frame_error(frame.error());
        }
        // A folded prefix has runs == trials_folded by construction;
        // anything else is not a checkpoint this engine wrote.
        if (job.summary.runs != job.trials_folded) {
          return DecodeError{DecodeStatus::kValueOutOfRange, frame_start,
                             "trials folded"};
        }
        c.jobs.push_back(std::move(job));
        break;
      }
      case CkptFrame::kEnd: {
        if (length != 0) {
          return DecodeError{DecodeStatus::kBadFrame, frame_start,
                             "end payload"};
        }
        if (c.jobs.size() != job_count) {
          return DecodeError{DecodeStatus::kBadFrame, frame_start,
                             "missing job frame"};
        }
        have_end = true;
        break;
      }
      default:
        return DecodeError{DecodeStatus::kBadFrame, frame_start, "frame type"};
    }
    if (!frame.at_end()) {
      return DecodeError{DecodeStatus::kBadFrame, frame_start,
                         "frame payload length"};
    }
  }
  if (!have_end) {
    return DecodeError{DecodeStatus::kTruncated, reader.pos(), "end frame"};
  }
  return c;
}

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace sskel
