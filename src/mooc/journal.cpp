#include "mooc/journal.hpp"

#include <filesystem>
#include <sstream>

#include "cache/cache.hpp"
#include "cache/wire.hpp"
#include "obs/metrics.hpp"

namespace l2l::mooc {
namespace {

using cache::wire::decode;

// Frame sizes: 1 type byte + 4 length bytes + payload + 4 CRC bytes.
constexpr std::size_t kFrameOverhead = 9;
// Payload cap: a frame claiming more is corrupt, not big. The largest
// legitimate payload is one outcome (a diagnostic string tops out around
// the grade callback's message sizes), far under this.
constexpr std::size_t kMaxPayload = std::size_t{1} << 26;

void put_u32le(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint32_t get_u32le(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

/// Read one frame at `pos`. False on truncation, an unknown type byte, an
/// oversized length, or a CRC mismatch -- the caller treats every one of
/// those as "the trustworthy prefix ends here".
bool next_frame(std::string_view data, std::size_t& pos,
                JournalFrameType& type, std::string_view& payload) {
  if (pos + kFrameOverhead > data.size()) return false;
  const auto raw_type = static_cast<unsigned char>(data[pos]);
  if (raw_type < static_cast<unsigned>(JournalFrameType::kHeader) ||
      raw_type > static_cast<unsigned>(JournalFrameType::kRunEnd))
    return false;
  const std::uint32_t len = get_u32le(data.data() + pos + 1);
  if (len > kMaxPayload || pos + kFrameOverhead + len > data.size())
    return false;
  const std::string_view checked(data.data() + pos, 5 + len);
  const std::uint32_t want = get_u32le(data.data() + pos + 5 + len);
  if (cache::crc32(checked) != want) return false;
  type = static_cast<JournalFrameType>(raw_type);
  payload = data.substr(pos + 5, len);
  pos += kFrameOverhead + len;
  return true;
}

// ---- payload codecs ------------------------------------------------------
// One field list per frame payload (cache/wire.hpp): JournalWriter encodes
// with it and scan_impl decodes with it. Decoding range-checks every enum,
// lane and flag and requires every byte consumed, so a syntactically valid
// frame with semantic garbage is still rejected.

constexpr auto header_fields = [](auto& io, auto& h) {
  io.i64(h.version);
  io.i64(h.trace_digest.hi);
  io.i64(h.trace_digest.lo);
  io.i64(h.config_digest.hi);
  io.i64(h.config_digest.lo);
  io.i64(h.num_events);
};

/// kTickBegin carries the tick, kTickEnd the tick and the stats
/// checksum, kRunEnd the checksum.
struct TickMark {
  std::uint32_t tick = 0;
  std::uint64_t check = 0;
};

constexpr auto tick_begin_fields = [](auto& io, auto& m) { io.i64(m.tick); };

constexpr auto tick_end_fields = [](auto& io, auto& m) {
  io.i64(m.tick);
  io.i64(m.check);
};

constexpr auto run_end_fields = [](auto& io, auto& m) { io.i64(m.check); };

constexpr auto rejection_fields = [](auto& io, auto& r) {
  io.i64(r.id);
  io.upto(r.disposition, Disposition::kShed);
  io.upto(r.lane, 1);
};

constexpr auto shed_fields = [](auto& io, auto& s) {
  io.i64(s.id);
  io.upto(s.lane, 1);
};

/// A memo replay names its source; a cache replay carries its outcome.
constexpr auto replay_fields = [](auto& io, auto& r) {
  io.i64(r.id);
  io.upto(r.source, ReplaySource::kCache);
  io.upto(r.disposition, Disposition::kShed);
  io.upto(r.lane, 1);
  if (r.source == ReplaySource::kCache) {
    io.nested(r.outcome, outcome_fields);
  } else {
    io.i64(r.source_id);
  }
};

constexpr auto outcome_frame_fields = [](auto& io, auto& o) {
  io.i64(o.id);
  io.upto(o.disposition, Disposition::kShed);
  io.upto(o.lane, 1);
  io.boolean(o.degraded);
  io.boolean(o.probe);
  io.nested(o.outcome, outcome_fields);
  io.i64(o.tally.transients);
  io.i64(o.tally.stalls);
};

constexpr auto breaker_fields = [](auto& io, auto& b) {
  io.i64(b.course);
  io.upto(b.action, BreakerAction::kRecover);
};

bool decode_rejected(std::string_view payload, JournaledRejection& out) {
  return decode(payload, out, rejection_fields) &&
         (out.disposition == Disposition::kRejectedQuota ||
          out.disposition == Disposition::kRejectedFull);
}

/// The cache tier's write discipline: full bytes to "<path>.tmp", then
/// one atomic rename. Readers (and a second recovery after a crash mid-
/// recovery) never see a partial file.
util::Status write_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  std::error_code ec;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      return util::Status::internal("journal: cannot write " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) {
      out.close();
      std::filesystem::remove(tmp, ec);
      return util::Status::internal("journal: short write to " + tmp);
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return util::Status::internal("journal: cannot rename into " + path);
  }
  return util::Status::okay();
}

JournalScan scan_impl(const std::string& path, std::string* raw_out) {
  JournalScan out;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return out;  // fresh start
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out.status = util::Status::internal("journal: cannot read " + path);
    return out;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string data = ss.str();
  if (raw_out != nullptr) *raw_out = data;
  const auto size = static_cast<std::int64_t>(data.size());

  std::size_t pos = 0;
  JournalFrameType type{};
  std::string_view payload;
  if (!next_frame(data, pos, type, payload) ||
      type != JournalFrameType::kHeader ||
      !decode(payload, out.header, header_fields) ||
      out.header.version != kJournalFormatVersion) {
    // No trustworthy header: the whole file is a torn tail and the drain
    // starts from scratch.
    out.torn_bytes = size;
    return out;
  }
  out.found = true;
  out.valid_bytes = static_cast<std::int64_t>(pos);

  JournalTick cur;
  TickMark mark;
  bool in_tick = false;
  while (pos < data.size() && !out.run_complete) {
    if (!next_frame(data, pos, type, payload)) break;
    bool ok = true;
    switch (type) {
      case JournalFrameType::kHeader:
        ok = false;  // a second header is corruption, not a format
        break;
      case JournalFrameType::kTickBegin:
        ok = !in_tick && decode(payload, mark, tick_begin_fields);
        if (ok) {
          in_tick = true;
          cur.tick = mark.tick;
          cur.rejections.clear();
          cur.sheds.clear();
          cur.replays.clear();
          cur.outcomes.clear();
          cur.breakers.clear();
          cur.stats_check = 0;
        }
        break;
      case JournalFrameType::kRejected:
        ok = in_tick && decode_rejected(payload, cur.rejections.emplace_back());
        break;
      case JournalFrameType::kShed:
        ok = in_tick && decode(payload, cur.sheds.emplace_back(), shed_fields);
        break;
      case JournalFrameType::kReplayed:
        ok = in_tick &&
             decode(payload, cur.replays.emplace_back(), replay_fields);
        break;
      case JournalFrameType::kOutcome:
        ok = in_tick && decode(payload, cur.outcomes.emplace_back(),
                               outcome_frame_fields);
        break;
      case JournalFrameType::kBreaker:
        ok = in_tick &&
             decode(payload, cur.breakers.emplace_back(), breaker_fields);
        break;
      case JournalFrameType::kTickEnd: {
        ok = in_tick && decode(payload, mark, tick_end_fields) &&
             mark.tick == cur.tick;
        if (ok) {
          cur.stats_check = mark.check;
          out.ticks.push_back(cur);
          in_tick = false;
          out.valid_bytes = static_cast<std::int64_t>(pos);
        }
        break;
      }
      case JournalFrameType::kRunEnd: {
        // The closing checksum must agree with the last tick's -- one
        // more way a spliced or fabricated tail fails to parse.
        ok = !in_tick && decode(payload, mark, run_end_fields) &&
             (out.ticks.empty() || out.ticks.back().stats_check == mark.check);
        if (ok) {
          out.run_complete = true;
          out.valid_bytes = static_cast<std::int64_t>(pos);
        }
        break;
      }
    }
    if (!ok) break;
  }
  out.torn_bytes = size - out.valid_bytes;
  // A header with nothing after it carries no decisions; treat the lone
  // header as part of the valid prefix (found stays true, zero ticks).
  return out;
}

}  // namespace

JournalScan scan_journal(const std::string& path) {
  return scan_impl(path, nullptr);
}

JournalScan recover_journal(const std::string& path) {
  std::string raw;
  JournalScan scan = scan_impl(path, &raw);
  obs::count("journal.recoveries");
  if (!scan.status.ok() || scan.torn_bytes == 0) return scan;

  // Quarantine the torn tail next to the journal, then rewrite the
  // frame-valid prefix -- both atomically, so a crash mid-recovery
  // leaves either the old journal or the repaired pair, never a mix.
  const auto valid = static_cast<std::size_t>(scan.valid_bytes);
  const std::string_view tail(raw.data() + valid, raw.size() - valid);
  if (auto st = write_atomic(path + ".quarantine", tail); !st.ok()) {
    scan.status = st;
    return scan;
  }
  if (scan.found) {
    if (auto st =
            write_atomic(path, std::string_view(raw.data(), valid));
        !st.ok()) {
      scan.status = st;
      return scan;
    }
  } else {
    // Nothing trustworthy at all: drop the original so the writer
    // starts a fresh journal.
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  obs::count("journal.quarantined_tails");
  obs::count("journal.quarantined_bytes", scan.torn_bytes);
  return scan;
}

// ---- JournalWriter -------------------------------------------------------

util::Status JournalWriter::open(const std::string& path,
                                 const JournalHeader& header, bool append) {
  std::error_code ec;
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  out_.open(path, append ? std::ios::binary | std::ios::app
                         : std::ios::binary | std::ios::trunc);
  if (!out_) return util::Status::internal("journal: cannot open " + path);
  if (append) return util::Status::okay();
  append_frame(JournalFrameType::kHeader, header, header_fields);
  return flush();
}

template <typename T, typename Fields>
void JournalWriter::append_frame(JournalFrameType type, const T& payload,
                                 Fields fields) {
  const std::size_t start = pending_.size();
  pending_.push_back(static_cast<char>(type));
  pending_.append(4, '\0');  // length, patched below
  cache::wire::encode_into(pending_, payload, fields);
  const std::size_t len = pending_.size() - start - 5;
  put_u32le(pending_.data() + start + 1, static_cast<std::uint32_t>(len));
  const std::uint32_t crc = cache::crc32(
      std::string_view(pending_.data() + start, pending_.size() - start));
  pending_.append(4, '\0');
  put_u32le(pending_.data() + pending_.size() - 4, crc);
  ++frames_;
}

util::Status JournalWriter::flush() {
  if (!pending_.empty()) {
    out_.write(pending_.data(),
               static_cast<std::streamsize>(pending_.size()));
    out_.flush();
    if (!out_.good())
      return util::Status::internal("journal: write failed (disk full?)");
    bytes_written_ += static_cast<std::int64_t>(pending_.size());
    obs::count("journal.bytes_appended",
               static_cast<std::int64_t>(pending_.size()));
    obs::count("journal.frames_appended", frames_);
    obs::count("journal.flushes");
    pending_.clear();
    frames_ = 0;
  }
  return util::Status::okay();
}

void JournalWriter::tick_begin(std::uint32_t tick) {
  append_frame(JournalFrameType::kTickBegin, TickMark{.tick = tick},
               tick_begin_fields);
}

void JournalWriter::rejected(std::uint64_t id, Disposition d,
                             std::uint8_t lane) {
  append_frame(JournalFrameType::kRejected, JournaledRejection{id, d, lane},
               rejection_fields);
}

void JournalWriter::shed(std::uint64_t id, std::uint8_t lane) {
  append_frame(JournalFrameType::kShed, JournaledShed{id, lane}, shed_fields);
}

void JournalWriter::replayed(std::uint64_t id, ReplaySource source,
                             Disposition d, std::uint8_t lane,
                             std::uint64_t source_id) {
  append_frame(JournalFrameType::kReplayed,
               JournaledReplay{.id = id,
                               .source = source,
                               .disposition = d,
                               .lane = lane,
                               .source_id = source_id,
                               .outcome = {}},
               replay_fields);
}

void JournalWriter::cache_hit(std::uint64_t id, Disposition d,
                              std::uint8_t lane,
                              const SubmissionOutcome& out) {
  append_frame(JournalFrameType::kReplayed,
               JournaledReplay{.id = id,
                               .source = ReplaySource::kCache,
                               .disposition = d,
                               .lane = lane,
                               .outcome = out},
               replay_fields);
}

void JournalWriter::outcome(std::uint64_t id, Disposition d,
                            std::uint8_t lane, bool degraded, bool probe,
                            const SubmissionOutcome& out,
                            const FaultTally& tally) {
  append_frame(JournalFrameType::kOutcome,
               JournaledOutcome{id, d, lane, degraded, probe, out, tally},
               outcome_frame_fields);
}

void JournalWriter::breaker(std::uint32_t course, BreakerAction action) {
  append_frame(JournalFrameType::kBreaker, JournaledBreaker{course, action},
               breaker_fields);
}

util::Status JournalWriter::tick_end(std::uint32_t tick,
                                     std::uint64_t stats_check) {
  append_frame(JournalFrameType::kTickEnd,
               TickMark{.tick = tick, .check = stats_check}, tick_end_fields);
  return flush();
}

util::Status JournalWriter::run_end(std::uint64_t stats_check) {
  append_frame(JournalFrameType::kRunEnd, TickMark{.check = stats_check},
               run_end_fields);
  return flush();
}

// ---- digests -------------------------------------------------------------

cache::Digest128 trace_digest(const SubmissionTrace& trace) {
  cache::Hasher h;
  h.i32(trace.num_courses);
  h.u64(trace.ticks);
  h.u64(trace.bodies.size());
  for (const auto& b : trace.bodies) h.str(b);
  h.u64(trace.events.size());
  for (const auto& e : trace.events)
    h.u64(e.course)
        .u64(e.student)
        .u64(e.body)
        .u64(e.arrival_tick)
        .u64(e.deadline_tick)
        .u64(e.lane);
  return h.finish();
}

cache::Digest128 service_config_digest(const ServiceOptions& opt) {
  cache::Hasher h;
  h.u64(kJournalFormatVersion)
      .i32(opt.queue_cap)
      .i32(opt.admit_quota)
      .i32(opt.service_rate)
      .i32(static_cast<std::int32_t>(opt.shed_policy))
      .i32(opt.breaker_threshold)
      .i32(opt.breaker_probe_interval)
      .u64(opt.storm_begin_tick)
      .u64(opt.storm_end_tick)
      .f64(opt.storm_transient_rate)
      .f64(opt.storm_stall_rate)
      .i32(opt.queue.max_retries)
      .i32(opt.queue.backoff_base_ticks)
      .i64(opt.queue.step_limit)
      .i64(opt.queue.time_limit_ms)
      .u64(opt.queue.fault_seed)
      .f64(opt.queue.transient_fault_rate)
      .f64(opt.queue.stall_rate)
      .boolean(static_cast<bool>(opt.queue.lint))
      .str(opt.queue.cache_domain);
  return h.finish();
}

std::uint64_t stats_checksum(const ServiceStats& s) {
  cache::Hasher h;
  h.i64(s.ticks)
      .i64(s.arrivals)
      .i64(s.admitted)
      .i64(s.rejected_quota)
      .i64(s.rejected_full)
      .i64(s.shed)
      .i64(s.graded)
      .i64(s.degraded)
      .i64(s.failed)
      .i64(s.budget_exceeded)
      .i64(s.retries_exhausted)
      .i64(s.lint_rejected)
      .i64(s.dedup_hits)
      .i64(s.cache_hits)
      .i64(s.breaker_trips)
      .i64(s.breaker_probes)
      .i64(s.breaker_recoveries)
      .i64(s.total_attempts)
      .i64(s.injected_transients)
      .i64(s.injected_stalls)
      .i64(s.peak_depth_first)
      .i64(s.peak_depth_resubmit);
  return h.finish().lo;
}

}  // namespace l2l::mooc
