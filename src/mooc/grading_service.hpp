#pragma once
// The persistent grading service: the planet-scale operational loop the
// paper's "large regression suite for a commercial EDA tool" actually ran
// as, and the repo's only grading pipeline: every submission is isolated,
// retried and deduplicated here, on top of the per-submission stages in
// grading_queue.hpp (lint_pre_grade_rejects, grade_one_submission). It is
// a tick-driven daemon over per-course bounded queues, built to
// survive what a semester throws at it:
//
//   * admission control  -- per-course per-tick arrival quotas; an
//                           arrival past the quota (or past a full queue
//                           under the `none` shed policy) is rejected
//                           with a recorded reason, never dropped;
//   * backpressure       -- per-course queue caps; when arrivals outrun
//                           capacity a deterministic shed policy evicts
//                           lowest-priority, oldest-deadline work first
//                           and records every eviction as an outcome;
//   * priority lanes     -- first submits outrank resubmits; within a
//                           lane the scheduler is earliest-deadline-first
//                           with ties broken by submission id;
//   * circuit breakers   -- per course: K consecutive injected-fault
//                           failures trip the breaker, scheduled work is
//                           degraded to lint-only grading while open, and
//                           half-open probes on a deterministic tick
//                           schedule re-close it when the fault storm
//                           passes;
//   * dedup & replay     -- byte-identical uploads replay the first
//                           outcome (in-run dedup, the service's own
//                           memo, always on) and, with a cache_domain,
//                           across runs through the result cache (engine
//                           id "mooc.service"; cache::set_enabled(false)
//                           turns only these lookups off) -- both
//                           decided sequentially so hits never depend on
//                           the thread schedule. Outcomes are memoized at
//                           the tick's sequential fold, so duplicates
//                           scheduled in the same tick both grade; a
//                           later tick (or a warm run) replays them.
//
// Determinism contract: scheduling, admission, shedding, breaker
// transitions, dedup, and every exported metric are bit-identical at any
// L2L_THREADS. Only the per-tick wall-clock latencies (kept out of the
// obs registry, in ServiceResult::tick_duration_us) vary run to run.
// Workers matter only inside one tick's scheduled batch, which is graded
// via parallel_for into pre-assigned slots and folded sequentially in
// schedule order.
//
// Accounting contract (the "zero silent drops" invariant the tests pin):
//
//   admitted + rejected + shed == arrivals
//
// where `admitted` counts submissions that reached a terminal grading
// outcome (graded / failed / budget / exhausted / lint-rejected /
// degraded), `rejected` counts admission-time refusals, and `shed` counts
// queue evictions. Every trace event owns exactly one ServiceOutcome.

#include <cstdint>
#include <string>
#include <vector>

#include "mooc/cohort.hpp"
#include "mooc/grading_queue.hpp"
#include "util/status.hpp"

namespace l2l::mooc {

enum class ShedPolicy {
  /// Evict lowest-priority lane first; within the lane, the entry with
  /// the oldest (smallest) deadline, ties broken by smallest submission
  /// id. Rationale: past-deadline work is the least useful to finish and
  /// the resubmit lane always outranks losing a first attempt.
  kOldestDeadline,
  /// Evict lowest-priority lane first; within the lane, the newest
  /// arrival (largest submission id). "You joined an overloaded queue
  /// last, you leave it first."
  kNewestFirst,
  /// Never evict: a full queue rejects new arrivals at admission instead.
  kNone,
};

/// Parse "oldest-deadline" / "newest-first" / "none" (the --shed-policy
/// spellings). Returns false on anything else.
bool parse_shed_policy(const std::string& text, ShedPolicy& out);
const char* shed_policy_name(ShedPolicy policy);

struct ServiceOptions {
  /// Per-course bound on queued-but-unserviced submissions (both lanes
  /// together). The knob that turns overload into shed/reject instead of
  /// unbounded memory.
  int queue_cap = 1024;
  /// Per-course per-tick admission quota: arrivals beyond it are
  /// rejected with kRejectedQuota. <= 0 admits nothing.
  int admit_quota = 256;
  /// Per-course submissions scheduled for service each tick (>= 1).
  int service_rate = 64;
  ShedPolicy shed_policy = ShedPolicy::kOldestDeadline;

  /// Circuit breaker: trips after this many consecutive
  /// injected-fault failures (kExhausted outcomes) in one course.
  int breaker_threshold = 8;
  /// While open, a half-open probe (one full-grade submission) runs every
  /// this many ticks; everything else in the course is lint-only.
  int breaker_probe_interval = 16;

  /// Fault storm window [storm_begin_tick, storm_end_tick): during these
  /// ticks the storm rates REPLACE queue.transient_fault_rate /
  /// queue.stall_rate. Deterministic -- the window is tick-defined, the
  /// draws are keyed by submission id.
  std::uint32_t storm_begin_tick = 0;
  std::uint32_t storm_end_tick = 0;
  double storm_transient_rate = 0.0;
  double storm_stall_rate = 0.0;

  /// Retry/backoff/budget/fault/lint/cache_domain knobs for the
  /// per-submission stages (grading_queue.hpp). cache_domain stores
  /// outcomes under engine id "mooc.service".
  QueueOptions queue;

  /// Record one ServiceOutcome per trace event (tests, reports). The
  /// stats/counters accounting is identical either way.
  bool record_outcomes = true;
};

/// Terminal disposition of one arrival. The first six are "admitted"
/// (serviced through the grade or degrade path); the last three never
/// reached a grader.
enum class Disposition : std::uint8_t {
  kGraded = 0,     ///< full grade, callback returned a score
  kFailed,         ///< callback threw on every attempt (poison input)
  kBudget,         ///< per-submission budget exhausted
  kExhausted,      ///< injected faults on every attempt
  kLintRejected,   ///< lint found errors (full or degraded mode)
  kDegraded,       ///< breaker open: serviced lint-only, no score
  kRejectedQuota,  ///< admission: per-tick course quota exceeded
  kRejectedFull,   ///< admission: queue at cap under ShedPolicy::kNone
  kShed,           ///< admitted, then evicted by the shed policy
};

const char* disposition_name(Disposition d);

struct ServiceOutcome {
  Disposition disposition = Disposition::kGraded;
  std::uint8_t lane = 0;
  /// Outcome replayed from the in-run dedup table or the result cache
  /// instead of grading.
  bool replayed = false;
  std::uint16_t attempts = 0;
  util::StatusCode status = util::StatusCode::kOk;
  /// Tick of the terminal decision (service, rejection, or shed).
  std::uint32_t final_tick = 0;
  std::int32_t backoff_ticks = 0;
  double score = 0.0;  ///< valid when disposition == kGraded
  /// Failure description for serviced submissions. Empty for
  /// rejected/shed outcomes -- at planet scale the disposition itself is
  /// the reason, and a million identical strings help nobody.
  std::string diagnostic;

  /// Field-wise equality -- the recovery tests compare whole outcome
  /// vectors against the uninterrupted run's.
  bool operator==(const ServiceOutcome&) const = default;
};

struct ServiceStats {
  std::int64_t ticks = 0;
  std::int64_t arrivals = 0;
  std::int64_t admitted = 0;  ///< serviced to a terminal grading outcome
  std::int64_t rejected_quota = 0;
  std::int64_t rejected_full = 0;
  std::int64_t shed = 0;
  std::int64_t graded = 0;
  std::int64_t degraded = 0;
  std::int64_t failed = 0;
  std::int64_t budget_exceeded = 0;
  std::int64_t retries_exhausted = 0;
  std::int64_t lint_rejected = 0;
  std::int64_t dedup_hits = 0;   ///< in-run duplicate replays
  std::int64_t cache_hits = 0;   ///< cross-run result-cache replays
  std::int64_t breaker_trips = 0;
  std::int64_t breaker_probes = 0;
  std::int64_t breaker_recoveries = 0;
  std::int64_t total_attempts = 0;
  std::int64_t injected_transients = 0;
  std::int64_t injected_stalls = 0;
  std::int64_t peak_depth_first = 0;     ///< max lane-0 depth (any course)
  std::int64_t peak_depth_resubmit = 0;  ///< max lane-1 depth (any course)

  std::int64_t rejected() const { return rejected_quota + rejected_full; }

  bool operator==(const ServiceStats&) const = default;
};

struct ServiceResult {
  /// One outcome per trace event, indexed by submission id. Empty when
  /// ServiceOptions::record_outcomes is false.
  std::vector<ServiceOutcome> outcomes;
  ServiceStats stats;
  /// Wall-clock duration of each tick, microseconds. Nondeterministic by
  /// nature, so it lives here and NEVER in the obs registry (whose export
  /// must stay byte-identical across runs and thread counts).
  std::vector<std::int64_t> tick_duration_us;

  /// The run stopped at RunRequest::halt_after_ticks (the crash
  /// harness's simulated kill) -- queues were NOT drained and the
  /// accounting identity is not expected to hold yet.
  bool halted = false;

  /// The zero-silent-drops invariant.
  bool accounting_ok() const {
    return stats.admitted + stats.rejected() + stats.shed == stats.arrivals;
  }
};

/// Exact percentile (nearest-rank) over tick_duration_us; 0 if empty.
std::int64_t tick_latency_percentile_us(const ServiceResult& res, double pct);

/// Durability controls for one run() invocation -- everything that is
/// about THIS process's lifetime rather than the service's semantics
/// (and so stays out of the journal's config digest).
struct RunRequest {
  /// Non-empty: journal every decision to this file (mooc/journal.hpp),
  /// flushed once per tick.
  std::string journal_path;
  /// Replay an existing journal at journal_path before grading anything:
  /// the torn tail is quarantined, the complete-tick prefix is replayed
  /// to the exact pre-crash state (journaled outcomes substituted, all
  /// re-derived decisions verified), then the drain continues live,
  /// appending. A missing/empty journal degrades to a fresh start; a
  /// journal for a different trace or config is refused.
  bool recover = false;
  /// >= 0: stop before processing tick N -- the deterministic stand-in
  /// for SIGKILL the crash-recovery harness sweeps. The result is
  /// marked halted and the accounting identity is not enforced.
  std::int64_t halt_after_ticks = -1;
};

/// The persistent grading daemon. Construct with options and the
/// grading callback, then run() a trace: the loop ticks from 0 until the
/// last arrival is consumed AND every course queue has drained, so no
/// submission is left behind even when overload pushes service past the
/// trace's nominal semester end.
class GradingService {
 public:
  GradingService(ServiceOptions opt, GradeFn grade);

  /// Drive the service over one trace. May be called repeatedly (e.g. a
  /// warm re-run against the same cache_domain); each run starts with
  /// empty queues and closed breakers.
  ServiceResult run(const SubmissionTrace& trace) const;

  /// The journal-aware form: same loop, plus whatever `req` asks for.
  /// `status` is non-ok when the journal cannot be written, a recovery
  /// header does not match this (trace, options) pair, or replay
  /// diverges from the journaled decisions -- in every case the partial
  /// result must not be trusted.
  ServiceResult run(const SubmissionTrace& trace, const RunRequest& req,
                    util::Status& status) const;

 private:
  ServiceOptions opt_;
  GradeFn grade_;
};

}  // namespace l2l::mooc
