#pragma once
// The semester workloads: a generated submission trace whose bodies are
// real course artifacts (artifacts.hpp), drained by mooc::GradingService
// with the sema pre-grade stage, the real grader facades and the journal
// on. One repetition is one cold drain of the whole semester.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "artifacts.hpp"
#include "mooc/cohort.hpp"
#include "mooc/grading_service.hpp"

namespace e2e {

struct SemesterSize {
  int students = 0;
  /// Distinct artifacts per course; 0 = every upload is its own artifact.
  int pool_per_course = 0;
  /// Per-course submissions the service schedules per tick.
  int service_rate = 512;
  /// Semester length and homework period, in logical ticks.
  std::uint32_t ticks = 200;
  std::uint32_t deadline_every = 25;
  /// Arrival schedules drawn for the semester. Repetitions cycle through
  /// them, so a run's medians span several draws of the arrival pattern
  /// instead of resting on one.
  int schedules = 1;
};

struct Semester {
  Fixtures fx;
  /// The artifacts every schedule shares; `events` holds the schedule the
  /// last run_semester drained.
  l2l::mooc::SubmissionTrace trace;
  std::vector<std::vector<l2l::mooc::SubmissionEvent>> schedules;
  std::vector<Verdict> expect;  ///< per trace body
};

/// Fixtures, artifacts, expected verdicts and schedules: a pure function
/// of (seed, size).
Semester make_semester(std::uint64_t seed, const SemesterSize& size);

struct SemesterRep {
  double wall_s = 0.0;  ///< GradingService::run
  double turnaround_p50_ms = 0.0;
  double turnaround_p99_ms = 0.0;
  std::int64_t arrivals = 0;
  /// Shed or rejected arrivals, failed/budget/exhausted outcomes, and
  /// verdicts that differ from the artifact's expected one.
  std::int64_t failed = 0;
  bool accounting_ok = false;
  l2l::mooc::ServiceStats stats;
  std::int64_t journal_bytes = 0;
  std::map<std::string, double> layers;  ///< traced repetitions only
};

/// One cold drain of schedule `schedule`: empty result cache, fresh obs
/// registry and tracer, a fresh journal at `journal_path` (removed
/// afterwards). `traced` turns the obs layer and the benchmark's own
/// layer timers on.
SemesterRep run_semester(Semester& sem, std::size_t schedule,
                         const SemesterSize& size, bool traced,
                         const std::string& journal_path);

}  // namespace e2e
