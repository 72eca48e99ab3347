// grading_service: drive the persistent grading daemon
// (mooc::GradingService) over a generated semester trace -- the
// operational loop behind the paper's planet-scale homework grading.
// Generates a deadline-clustered, duplicate-heavy submission trace
// (mooc::generate_submission_trace), drains it through the tick-driven
// service with admission control, backpressure shedding, priority lanes,
// and per-course circuit breakers, then prints the accounting report.
//
//   --courses N        courses sharing the fleet        (default 2)
//   --students N       registrants across all courses   (default 20000)
//   --ticks N          semester length in ticks         (default 200)
//   --queue-cap N      per-course queue bound           (default 1024)
//   --admit-quota N    per-course per-tick admissions   (default 256)
//   --service-rate N   per-course grades per tick       (default 64)
//   --shed-policy P    oldest-deadline | newest-first | none
//   --fault-storm      inject a mid-semester fault storm (trips breakers)
//   --seed N           trace seed
//
// Durability (mooc/journal.hpp):
//
//   --journal-dir D      journal every decision to D/shard-0.l2lj,
//                        flushed once per tick
//   --recover            replay an existing journal first (quarantining
//                        any torn tail), then continue the drain live
//   --halt-after-tick K  stop cold before tick K (the crash harness's
//                        deterministic SIGKILL); prints the partial
//                        report, skips the accounting check, exits 0
//
// Shared pack: --lint/--sema/--metrics/--trace. The cache pair
// (--no-cache/--cache-dir) is not registered and is rejected like any
// unknown flag: the service dedups within a run on its own memo, and this
// driver sets no cache_domain, so neither flag could change its report.
// Every line of the report except the trailing "# wall-clock" comment is
// deterministic: bit-identical at any L2L_THREADS value and across runs.
// The "journal:" line describes the run, not the drain; comparison tests
// filter it before diffing reports.
//
// Exit codes follow the shared convention (util/status.hpp): 0 ok,
// 2 usage, 3 malformed flag value (including a count that does not fit
// its field, out-of-range TraceOptions, and a --recover journal written
// for a different trace/config),
// 5 internal error (a broken accounting invariant or a journal replay
// divergence -- the service must never drop work silently).

#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "cache/digest.hpp"
#include "common_cli.hpp"
#include "mooc/cohort.hpp"
#include "mooc/grading_service.hpp"
#include "mooc/submission_lint.hpp"
#include "obs/trace.hpp"
#include "util/arg_parser.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace {

/// The stand-in grader: re-digests the submission a few dozen rounds,
/// the cost shape of a real parse+verify pass. Deterministic, budget-
/// aware (one step per round), so the cache may replay it.
double digest_grade(const std::string& s, const l2l::util::Budget& guard) {
  l2l::cache::Digest128 d = l2l::cache::digest_bytes(s);
  for (int r = 0; r < 32; ++r) {
    if (!guard.consume(1)) break;
    l2l::cache::Hasher h;
    h.u64(d.hi).u64(d.lo).str(s);
    d = h.finish();
  }
  return static_cast<double>(d.lo % 101);
}

/// Narrow a parsed (non-negative) int64 flag value into the field it
/// fills. A value the field cannot hold is a malformed flag value (exit 3),
/// never silently wrapped: --service-rate 4294967297 must not become 1.
template <typename T>
l2l::util::Status narrow_flag(const char* flag, std::int64_t value, T& out) {
  constexpr auto hi = static_cast<std::int64_t>(std::numeric_limits<T>::max());
  if (value > hi)
    return l2l::util::Status::invalid(std::string(flag) + " wants at most " +
                                      std::to_string(hi));
  out = static_cast<T>(value);
  return l2l::util::Status::okay();
}

}  // namespace

int main(int argc, char** argv) try {
  l2l::obs::ExportOnExit obs_export;
  l2l::tools::CommonFlags common;

  std::int64_t courses = 2;
  std::int64_t students = 20000;
  std::int64_t ticks = 200;
  std::int64_t queue_cap = 1024;
  std::int64_t admit_quota = 256;
  std::int64_t service_rate = 64;
  std::int64_t seed = 1;
  bool fault_storm = false;
  std::string journal_dir;
  bool recover = false;
  std::int64_t halt_after_tick = -1;
  l2l::mooc::ServiceOptions sopt;

  l2l::util::ArgParser parser;
  l2l::tools::add_common_flags(parser, common, obs_export);
  parser.int64_value("--courses", &courses, "courses sharing the fleet");
  parser.int64_value("--students", &students, "registrants across courses");
  parser.int64_value("--ticks", &ticks, "semester length in ticks");
  parser.int64_value("--queue-cap", &queue_cap, "per-course queue bound");
  parser.int64_value("--admit-quota", &admit_quota,
                     "per-course per-tick admission quota");
  parser.int64_value("--service-rate", &service_rate,
                     "per-course grades per tick");
  parser.value_fn(
      "--shed-policy",
      [&](const std::string& v) {
        if (l2l::mooc::parse_shed_policy(v, sopt.shed_policy))
          return l2l::util::Status::okay();
        return l2l::util::Status::parse_error(
            "--shed-policy wants oldest-deadline | newest-first | none");
      },
      "oldest-deadline | newest-first | none");
  parser.flag("--fault-storm", &fault_storm,
              "inject a mid-semester worker-fault storm");
  parser.int64_value("--seed", &seed, "trace seed");
  parser.value("--journal-dir", &journal_dir,
               "journal decisions to DIR/shard-0.l2lj");
  parser.flag("--recover", &recover,
              "replay the existing journal before continuing the drain");
  parser.int64_value("--halt-after-tick", &halt_after_tick,
                     "stop cold before tick K (simulated crash)");
  if (const auto st = parser.parse(argc, argv); !st.ok()) return l2l::tools::fail(st);

  l2l::mooc::TraceOptions topt;
  for (const auto& st :
       {narrow_flag("--courses", courses, topt.num_courses),
        narrow_flag("--students", students, topt.num_students),
        narrow_flag("--ticks", ticks, topt.ticks),
        narrow_flag("--queue-cap", queue_cap, sopt.queue_cap),
        narrow_flag("--admit-quota", admit_quota, sopt.admit_quota),
        narrow_flag("--service-rate", service_rate, sopt.service_rate)})
    if (!st.ok()) return l2l::tools::fail(st);
  if (const auto st = l2l::mooc::validate(topt); !st.ok()) return l2l::tools::fail(st);
  l2l::util::Rng rng(static_cast<std::uint64_t>(seed));
  const auto trace = l2l::mooc::generate_submission_trace(topt, rng);

  if (fault_storm) {
    // The storm covers the middle third of the semester, hot enough that
    // every retry budget drains and the breakers trip.
    sopt.storm_begin_tick = trace.ticks / 3;
    sopt.storm_end_tick = 2 * trace.ticks / 3;
    sopt.storm_transient_rate = 0.97;
    sopt.storm_stall_rate = 0.5;
  }
  if (common.sema) {
    // Semantic pre-grade: reject cyclic/contradictory artifacts before
    // any engine budget is spent. Composes with --lint (the header rule
    // rides along); verdicts are pure in the bytes, so they replay, and
    // the breaker-open degraded path still runs the callback.
    sopt.queue.lint = l2l::mooc::sema_submission_lint(common.lint);
  } else if (common.lint) {
    // The portal rule for generated uploads: a submission must carry the
    // "course" header line. Pure in the bytes, so verdicts replay.
    sopt.queue.lint = [](const std::string& body) {
      std::vector<l2l::util::Diagnostic> out;
      if (body.rfind("course ", 0) != 0)
        out.push_back(l2l::util::make_error(
            1, 1, "submission is missing the course header"));
      return out;
    };
  }

  l2l::mooc::RunRequest rreq;
  if (!journal_dir.empty()) rreq.journal_path = journal_dir + "/shard-0.l2lj";
  rreq.recover = recover;
  rreq.halt_after_ticks = halt_after_tick;
  const l2l::mooc::GradingService service(sopt, digest_grade);
  l2l::util::Status run_status;
  const auto res = service.run(trace, rreq, run_status);
  if (!run_status.ok()) return l2l::tools::fail(run_status);
  const auto& s = res.stats;

  std::cout << "service: courses=" << trace.num_courses
            << " students=" << students << " ticks=" << trace.ticks
            << " events=" << trace.events.size() << "\n";
  std::cout << "policy: queue-cap=" << sopt.queue_cap
            << " admit-quota=" << sopt.admit_quota
            << " service-rate=" << sopt.service_rate
            << " shed=" << l2l::mooc::shed_policy_name(sopt.shed_policy)
            << (fault_storm ? " fault-storm" : "") << "\n";
  // Present only when journaling, and filtered by the report-diff tests
  // (the drain itself must match without it).
  if (!journal_dir.empty())
    std::cout << "journal: dir=" << journal_dir
              << (recover ? " recovered" : "") << "\n";
  std::cout << "arrivals " << s.arrivals << " | admitted " << s.admitted
            << " | rejected-quota " << s.rejected_quota << " | rejected-full "
            << s.rejected_full << " | shed " << s.shed << "\n";
  std::cout << "graded " << s.graded << " | degraded " << s.degraded
            << " | failed " << s.failed << " | budget " << s.budget_exceeded
            << " | exhausted " << s.retries_exhausted << " | lint-rejected "
            << s.lint_rejected << "\n";
  std::cout << "dedup-hits " << s.dedup_hits << " | cache-hits "
            << s.cache_hits << "\n";
  std::cout << "breaker: trips " << s.breaker_trips << " | probes "
            << s.breaker_probes << " | recoveries " << s.breaker_recoveries
            << "\n";
  std::cout << "peak depth: first " << s.peak_depth_first << " | resubmit "
            << s.peak_depth_resubmit << "\n";
  std::cout << "ticks run " << s.ticks << "\n";
  if (res.halted)
    std::cout << "accounting: halted before tick " << halt_after_tick
              << " (queues not drained)\n";
  else
    std::cout << "accounting: admitted + rejected + shed == arrivals ("
              << (res.accounting_ok() ? "OK" : "BROKEN") << ")\n";

  // The only nondeterministic lines, quarantined behind a comment marker.
  std::int64_t total_us = 0;
  for (const auto us : res.tick_duration_us) total_us += us;
  const double secs = static_cast<double>(total_us) / 1e6;
  const double rate =
      secs > 0 ? static_cast<double>(s.admitted) / secs : 0.0;
  std::cout << "# wall-clock: " << static_cast<std::int64_t>(rate)
            << " submissions/sec, tick p50 "
            << l2l::mooc::tick_latency_percentile_us(res, 50.0)
            << " us, p99 " << l2l::mooc::tick_latency_percentile_us(res, 99.0)
            << " us\n";

  if (!res.halted && !res.accounting_ok())
    return l2l::tools::fail(l2l::util::Status::internal(
        "accounting invariant broken: a submission was dropped silently"));
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << l2l::util::Status::internal(e.what()).to_string()
            << "\n";
  return l2l::util::kExitInternal;
} catch (...) {
  std::cerr << "error: internal-error: unknown\n";
  return l2l::util::kExitInternal;
}
