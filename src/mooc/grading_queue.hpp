#pragma once
// The per-submission stages of the MOOC's grading pipeline -- the service
// the paper describes as "a large regression suite for a commercial EDA
// tool" run against planet-scale student uploads. mooc::GradingService
// (grading_service.hpp) is the one caller: it schedules, dedups and
// journals, and hands each submission to the pre-grade lint gate and the
// attempt loop declared here, which wrap an arbitrary grading callback
// with the production failure modes:
//
//   * slow submissions   (the grader runs long; the per-submission budget
//                         cuts it off deterministically),
//   * poison inputs      (the grader throws; the barrier converts the
//                         escape into a diagnostic outcome),
//   * transient worker faults and stalls (injected; retried with bounded
//                         exponential backoff until max_retries).
//
// Fault injection is deterministic: whether attempt k of submission i
// faults is a pure hash of (fault_seed, i, k), independent of thread
// schedule, so a service run is bit-identical at any L2L_THREADS value
// and a test can assert exact per-submission outcomes.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cache/wire.hpp"
#include "util/budget.hpp"
#include "util/status.hpp"

namespace l2l::mooc {

struct QueueOptions {
  /// Retries per submission after the first attempt (injected faults and
  /// grader exceptions retry; deterministic budget exhaustion does not --
  /// a submission that blew its step budget once will blow it again).
  int max_retries = 2;
  /// Simulated backoff before retry r: backoff_base_ticks << (r - 1),
  /// with the shift clamped (and the accumulated total saturated at
  /// INT_MAX) so max_retries = 64 is well-defined, not UB. Recorded in
  /// the outcome, never slept -- the simulator models the schedule, the
  /// test asserts it.
  int backoff_base_ticks = 1;
  /// Per-submission step budget handed to the grading callback (< 0 =
  /// unlimited). Deterministic guard -- see util::Budget.
  std::int64_t step_limit = -1;
  /// Per-submission wall-clock limit in ms (< 0 = none). Nondeterministic;
  /// off by default.
  std::int64_t time_limit_ms = -1;
  /// Fault injection. Rates are per-attempt probabilities in [0, 1],
  /// derived from splitmix64(fault_seed, submission, attempt).
  std::uint64_t fault_seed = 0;
  double transient_fault_rate = 0.0;  ///< worker "crash" before grading
  double stall_rate = 0.0;            ///< worker "stall" (times out, retried)
  /// Optional pre-grade lint stage (e.g. a l2l::lint rule pack bound to
  /// the assignment's format). Runs once per submission before the first
  /// grading attempt; any error-severity diagnostic rejects the
  /// submission (kRejected) without spending a grading attempt, and the
  /// rendered findings land in the outcome's diagnostic. Deterministic,
  /// so rejection is never retried -- and with the result cache enabled,
  /// never re-run for a byte-identical resubmission either (the service
  /// replays the verdict from its lint memo).
  std::function<std::vector<util::Diagnostic>(const std::string&)> lint;
  /// Cross-run outcome replay domain. Empty (default): identical
  /// submissions are deduplicated within one run only. Non-empty: the
  /// caller asserts that this string identifies the grading callback +
  /// lint pack (e.g. "hw7.route-v1"), and finished outcomes are stored
  /// in the global result cache under engine id "mooc.service" so a
  /// later run with the same domain and options replays them without
  /// grading. Only consulted on fault-free ticks (rates 0) -- injected
  /// faults are keyed by submission id, so their outcomes are not
  /// content-addressable.
  std::string cache_domain;
};

enum class OutcomeKind {
  kGraded,        ///< callback returned a score
  kFailed,        ///< callback threw on every attempt (poison input)
  kBudget,        ///< per-submission budget exhausted (not retried)
  kExhausted,     ///< injected faults on every attempt; retries spent
  kRejected,      ///< pre-grade lint found errors; grading never ran
};

struct SubmissionOutcome {
  OutcomeKind kind = OutcomeKind::kGraded;
  double score = 0.0;          ///< valid when kind == kGraded
  int attempts = 0;            ///< attempts actually consumed
  int backoff_ticks = 0;       ///< total simulated backoff before success/giving up
  util::Status status;         ///< non-ok for every kind but kGraded
  std::string diagnostic;      ///< human-readable failure description
};

/// Injected-fault counts observed while grading one submission. Kept
/// separate from SubmissionOutcome so replaying an outcome (dedup, cache)
/// never replays the fault tallies that were not actually incurred.
struct FaultTally {
  int transients = 0;
  int stalls = 0;
};

/// The grading callback: score one submission under the given resource
/// guard. May throw (the attempt loop isolates it); may honor the budget
/// (the loop checks it afterwards either way).
using GradeFn =
    std::function<double(const std::string& submission, const util::Budget&)>;

/// One submission through the full attempt loop: injected faults, budget
/// guard, exception barrier, bounded retries with saturating exponential
/// backoff. Fault draws are a pure hash of (opt.fault_seed, fault_key,
/// attempt) -- the GradingService keys it by the trace-wide submission
/// id, so the outcome never depends on which worker lane runs it. When
/// every attempt fails, the last one decides the verdict: a grader throw
/// gives kFailed, an injected fault kExhausted.
void grade_one_submission(std::uint64_t fault_key,
                          const std::string& submission, const GradeFn& grade,
                          const QueueOptions& opt, SubmissionOutcome& out,
                          FaultTally& tally);

/// Pre-grade lint for one submission: runs QueueOptions::lint (when set)
/// and, on any error-severity finding, fills `out` with the kRejected
/// verdict and returns true. Pure in the submission bytes, so verdicts
/// are always replayable.
bool lint_pre_grade_rejects(const std::string& submission,
                            const QueueOptions& opt, SubmissionOutcome& out);

/// The field list (cache/wire.hpp) of a finished outcome's record: the
/// result-cache value under engine id "mooc.service", nested whole in the
/// journal's outcome and cache-replay frames. A record that fails
/// cache::wire::decode (truncated, corrupt, out of range) is a cache
/// miss, never a trusted outcome.
inline constexpr auto outcome_fields = [](auto& io, auto& o) {
  io.upto(o.kind, OutcomeKind::kRejected);
  io.f64(o.score);
  io.i64(o.attempts);
  io.i64(o.backoff_ticks);
  cache::wire::status(io, o.status);
  io.str(o.diagnostic);
};

}  // namespace l2l::mooc
