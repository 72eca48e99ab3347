#pragma once
// The grading service's crash-recovery journal: an append-only,
// CRC-framed, versioned binary log of every decision the deterministic
// tick loop makes -- admissions, sheds, dedup/cache replays, grade
// outcomes, breaker transitions, tick boundaries. The design leans on
// the service's determinism contract instead of fighting it:
//
//   * The loop's CONTROL FLOW (admission, shedding, scheduling, dedup,
//     breaker arithmetic) is a pure function of (trace, options), so
//     recovery re-derives it by re-running the loop. The journal's job
//     is the two things a fresh process cannot re-derive: the grade
//     callback's outcomes (substituted positionally into each replayed
//     tick's batch) and the warm cross-run cache's hit/miss pattern.
//   * Everything re-derived is still VERIFIED against the journal frame
//     by frame -- ids, dispositions, breaker transitions, and a running
//     ServiceStats checksum at every tick boundary. A mismatch is a
//     hard kInternal error, never a silent "best effort": a journal is
//     replayed exactly or not at all.
//   * A dedup-memo replay is a few words: its frame names the SOURCE
//     submission whose outcome it replayed (the first submission with
//     the same body whose outcome that memo holds), not the outcome
//     bytes. Recovery re-derives the replay and verifies id, memo kind
//     and source id; a reader answers "where did this verdict come
//     from?" by following the source id to that submission's kOutcome
//     or kCache frame, which always comes earlier in the file. Only a
//     cross-run cache hit (kCache) carries its outcome, because
//     recovery substitutes it.
//   * Frames are flushed once per tick, so the on-disk journal is
//     always a prefix of complete ticks plus (after a crash) a torn
//     tail. Recovery scans to the last frame-valid kTickEnd, quarantines
//     the tail bytes next to the journal (atomic tmp+rename, the cache
//     tier's discipline), rewrites the valid prefix the same way, and
//     replays -- so a process killed at ANY byte offset restarts into
//     the exact pre-crash state: byte-identical outcomes, obs counters,
//     and accounting at any L2L_THREADS.
//
// Frame layout (all integers little-endian):
//
//   [u8 type][u32 payload_len][payload][u32 crc32(type|len|payload)]
//
// with each payload one field list (cache/wire.hpp) over the cache
// layer's length-prefixed records, and SubmissionOutcome bodies nesting
// the result-cache record (mooc::outcome_fields). CRC-32 is
// cache::crc32. A header frame opens the file carrying the format
// version, the trace/config digests and the event count; a recovery
// against a journal whose digests do not match the live run is refused
// (kInvalidArgument) -- replaying someone else's decisions is worse than
// regrading. A journal of another format version (version 1 wrote full
// outcomes into memo frames, versions 1 and 2 carried shard coordinates
// in the header) takes the unreadable-header path: the whole file is
// quarantined and the drain starts from tick 0.
//
// The journal.* obs counters describe the journal I/O THIS process
// performed (frames appended, ticks replayed, tails quarantined); they
// are the one metric family that legitimately differs between an
// uninterrupted run and a crash+recovery pair, and the byte-identity
// tests filter them accordingly (see tests/journal_test.cpp).

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "cache/digest.hpp"
#include "mooc/cohort.hpp"
#include "mooc/grading_queue.hpp"
#include "mooc/grading_service.hpp"
#include "util/status.hpp"

namespace l2l::mooc {

/// Bump on any frame/payload layout change. Recovery reads only this
/// version: a journal of any other is quarantined whole and the drain
/// regrades from tick 0 (the version also feeds the config digest).
inline constexpr std::uint64_t kJournalFormatVersion = 3;

enum class JournalFrameType : std::uint8_t {
  kHeader = 1,     ///< version, digests, event count
  kTickBegin = 2,  ///< tick number
  kRejected = 3,   ///< admission refusal (quota / queue-full)
  kShed = 4,       ///< queue eviction by the shed policy
  kReplayed = 5,   ///< dedup-memo (source id) or cross-run-cache replay
  kOutcome = 6,    ///< one graded batch slot (outcome + fault tally)
  kBreaker = 7,    ///< circuit-breaker transition
  kTickEnd = 8,    ///< tick number + running ServiceStats checksum
  kRunEnd = 9,     ///< final ServiceStats checksum; the drain finished
};

/// Which sequential replay path answered a scheduled submission. The
/// memo sources are re-derived during recovery and only verified; kCache
/// is substituted from the journal (a fresh process's cache is cold, and
/// consulting it live would fork history from the original run's).
enum class ReplaySource : std::uint8_t {
  kLintMemo = 0,      ///< in-run lint-rejection memo
  kDegradedMemo = 1,  ///< breaker-open lint-clean memo
  kFullMemo = 2,      ///< in-run full-outcome memo
  kCache = 3,         ///< cross-run result cache (cache_domain)
};

enum class BreakerAction : std::uint8_t {
  kTrip = 0,       ///< closed -> open (threshold consecutive fault fails)
  kProbeFail = 1,  ///< half-open probe failed; probe schedule restarts
  kRecover = 2,    ///< half-open probe passed; open -> closed
};

struct JournalHeader {
  std::uint64_t version = kJournalFormatVersion;
  cache::Digest128 trace_digest;   ///< mooc::trace_digest of the input
  cache::Digest128 config_digest;  ///< mooc::service_config_digest
  std::uint64_t num_events = 0;

  bool operator==(const JournalHeader&) const = default;
};

struct JournaledRejection {
  std::uint64_t id = 0;
  Disposition disposition = Disposition::kRejectedQuota;
  std::uint8_t lane = 0;
};

struct JournaledShed {
  std::uint64_t id = 0;
  std::uint8_t lane = 0;
};

struct JournaledReplay {
  std::uint64_t id = 0;
  ReplaySource source = ReplaySource::kFullMemo;
  Disposition disposition = Disposition::kGraded;
  std::uint8_t lane = 0;
  /// Memo sources: the submission whose outcome was replayed.
  std::uint64_t source_id = 0;
  /// kCache only: the cached outcome, substituted during recovery.
  SubmissionOutcome outcome;
};

struct JournaledOutcome {
  std::uint64_t id = 0;
  Disposition disposition = Disposition::kGraded;
  std::uint8_t lane = 0;
  bool degraded = false;
  bool probe = false;
  SubmissionOutcome outcome;
  FaultTally tally;
};

struct JournaledBreaker {
  std::uint32_t course = 0;
  BreakerAction action = BreakerAction::kTrip;
};

/// One complete tick's frames, decoded. Within each vector the original
/// append order is preserved (arrival order for rejections/sheds,
/// schedule order for replays, fold order for outcomes/breakers).
struct JournalTick {
  std::uint32_t tick = 0;
  std::vector<JournaledRejection> rejections;
  std::vector<JournaledShed> sheds;
  std::vector<JournaledReplay> replays;
  std::vector<JournaledOutcome> outcomes;
  std::vector<JournaledBreaker> breakers;
  std::uint64_t stats_check = 0;  ///< from the closing kTickEnd frame
};

struct JournalScan {
  /// A frame-valid header was found. False for a missing file AND for a
  /// file whose very first frame is corrupt -- in both cases recovery
  /// starts the drain from scratch (quarantining the bytes, if any).
  bool found = false;
  JournalHeader header;
  std::vector<JournalTick> ticks;  ///< complete ticks only, in order
  bool run_complete = false;       ///< a valid kRunEnd closed the file
  std::int64_t valid_bytes = 0;    ///< prefix ending at the last complete tick
  std::int64_t torn_bytes = 0;     ///< trailing bytes past that prefix
  /// Non-ok only for environment-level failures (unreadable file with
  /// the path present, quarantine write failure). Corruption is NOT an
  /// error -- it is the expected post-crash state, reported via
  /// torn_bytes and a shorter ticks vector.
  util::Status status;
};

/// Decode as much of the journal as can be trusted. Read-only: the file
/// is not modified, whatever its state.
JournalScan scan_journal(const std::string& path);

/// scan_journal + quarantine: any torn tail is moved to
/// "<path>.quarantine" and the journal is rewritten to its frame-valid
/// prefix, both via tmp+atomic-rename so a crash DURING recovery still
/// leaves a consistent pair. Counts journal.recoveries /
/// journal.quarantined_tails / journal.quarantined_bytes.
JournalScan recover_journal(const std::string& path);

/// Append-side of the journal. Frames accumulate in memory and hit the
/// file once per tick (tick_end flushes), so a kill leaves at most one
/// torn tick -- which recovery drops and regrades. Not thread-safe; the
/// service writes only from its sequential program points.
class JournalWriter {
 public:
  JournalWriter() = default;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Open fresh (truncate + header frame, parent dirs created) or for
  /// append after a recover_journal pass (the header is already on
  /// disk and is NOT rewritten).
  util::Status open(const std::string& path, const JournalHeader& header,
                    bool append);

  void tick_begin(std::uint32_t tick);
  void rejected(std::uint64_t id, Disposition d, std::uint8_t lane);
  void shed(std::uint64_t id, std::uint8_t lane);
  /// A dedup-memo replay (any source but kCache) of `source_id`'s
  /// outcome.
  void replayed(std::uint64_t id, ReplaySource source, Disposition d,
                std::uint8_t lane, std::uint64_t source_id);
  /// A cross-run cache hit; the frame carries the outcome.
  void cache_hit(std::uint64_t id, Disposition d, std::uint8_t lane,
                 const SubmissionOutcome& out);
  void outcome(std::uint64_t id, Disposition d, std::uint8_t lane,
               bool degraded, bool probe, const SubmissionOutcome& out,
               const FaultTally& tally);
  void breaker(std::uint32_t course, BreakerAction action);

  /// Close the tick and flush every pending frame to disk. A non-ok
  /// status (disk full, file gone) aborts the run -- a journaled service
  /// that cannot journal must not keep grading.
  util::Status tick_end(std::uint32_t tick, std::uint64_t stats_check);
  /// The drain finished; append the closing frame and flush.
  util::Status run_end(std::uint64_t stats_check);

  std::int64_t bytes_written() const { return bytes_written_; }

 private:
  // Encodes `payload` through its field list straight into pending_,
  // between the type byte plus length and the CRC.
  template <typename T, typename Fields>
  void append_frame(JournalFrameType type, const T& payload, Fields fields);
  util::Status flush();

  std::ofstream out_;
  std::string pending_;
  std::int64_t bytes_written_ = 0;
  std::int64_t frames_ = 0;
};

/// Canonical digest of a submission trace (courses, bodies, events) --
/// the journal header's "this log belongs to that input" pin.
cache::Digest128 trace_digest(const SubmissionTrace& trace);

/// Canonical digest of every ServiceOptions knob that feeds a decision
/// the journal records, the storm window included. Excludes
/// record_outcomes (presentation only).
cache::Digest128 service_config_digest(const ServiceOptions& opt);

/// Order-pinned checksum over every ServiceStats field -- the per-tick
/// "never trusted" guard: replay recomputes it and any drift from the
/// journaled value aborts recovery with kInternal.
std::uint64_t stats_checksum(const ServiceStats& s);

}  // namespace l2l::mooc
