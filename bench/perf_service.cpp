// Grading-service benchmarks: what the persistent grading daemon
// (mooc::GradingService) sustains tick over tick, and what the overload
// machinery -- admission quotas, shed policies, circuit breakers -- costs
// when a semester's deadline spike hits. The headline case is the
// million-student simulated semester from the ROADMAP: the service drains
// it under a queue cap far below the arrival rate, closes the books
// exactly (admitted + rejected + shed == arrivals), and reports sustained
// submissions/sec plus p50/p99 tick latency as bench counters.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/digest.hpp"
#include "mooc/cohort.hpp"
#include "mooc/grading_service.hpp"
#include "mooc/journal.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace {

using namespace l2l;

/// The stand-in grader (same shape as tools/grading_service.cpp): a few
/// dozen digest rounds standing in for a real parse+verify pass.
double digest_grade(const std::string& s, const util::Budget& guard) {
  cache::Digest128 d = cache::digest_bytes(s);
  for (int r = 0; r < 32; ++r) {
    if (!guard.consume(1)) break;
    cache::Hasher h;
    h.u64(d.hi).u64(d.lo).str(s);
    d = h.finish();
  }
  return static_cast<double>(d.lo % 101);
}

mooc::SubmissionTrace make_trace(int students, int courses,
                                 std::uint32_t ticks) {
  mooc::TraceOptions topt;
  topt.num_students = students;
  topt.num_courses = courses;
  topt.ticks = ticks;
  util::Rng rng(7);
  return mooc::generate_submission_trace(topt, rng);
}

void report_service(benchmark::State& state, const mooc::ServiceResult& res) {
  const auto& s = res.stats;
  if (!res.accounting_ok()) {
    state.SkipWithError("accounting invariant broken: silent drop");
    return;
  }
  std::int64_t total_us = 0;
  for (const auto us : res.tick_duration_us) total_us += us;
  const double secs = static_cast<double>(total_us) / 1e6;
  state.counters["submissions_per_sec"] =
      secs > 0 ? static_cast<double>(s.admitted) / secs : 0.0;
  state.counters["tick_p50_us"] =
      static_cast<double>(mooc::tick_latency_percentile_us(res, 50.0));
  state.counters["tick_p99_us"] =
      static_cast<double>(mooc::tick_latency_percentile_us(res, 99.0));
  state.counters["arrivals"] = static_cast<double>(s.arrivals);
  state.counters["admitted"] = static_cast<double>(s.admitted);
  state.counters["rejected"] = static_cast<double>(s.rejected());
  state.counters["shed"] = static_cast<double>(s.shed);
  state.counters["breaker_trips"] = static_cast<double>(s.breaker_trips);
  state.counters["dedup_hits"] = static_cast<double>(s.dedup_hits);
}

/// Steady state: capacity comfortably above the arrival rate, the number
/// every overload case is compared against.
void BM_ServiceDrainSteady(benchmark::State& state) {
  const auto trace = make_trace(4000, 2, 120);
  mooc::ServiceOptions sopt;
  mooc::ServiceResult last;
  for (auto _ : state) {
    const mooc::GradingService service(sopt, digest_grade);
    last = service.run(trace);
    benchmark::DoNotOptimize(last.stats.admitted);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.events.size()));
  report_service(state, last);
}
BENCHMARK(BM_ServiceDrainSteady)->Unit(benchmark::kMillisecond);

/// Overload: queue cap and service rate far below the deadline spike, so
/// the shed/reject machinery carries most arrivals.
void BM_ServiceDrainOverload(benchmark::State& state) {
  const auto trace = make_trace(20000, 2, 120);
  mooc::ServiceOptions sopt;
  sopt.queue_cap = 64;
  sopt.admit_quota = 48;
  sopt.service_rate = 8;
  mooc::ServiceResult last;
  for (auto _ : state) {
    const mooc::GradingService service(sopt, digest_grade);
    last = service.run(trace);
    benchmark::DoNotOptimize(last.stats.shed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.events.size()));
  report_service(state, last);
}
BENCHMARK(BM_ServiceDrainOverload)->Unit(benchmark::kMillisecond);

/// Fault storm mid-semester: breakers trip, courses degrade to lint-only,
/// half-open probes re-close them once the storm passes.
void BM_ServiceDrainFaultStorm(benchmark::State& state) {
  const auto trace = make_trace(8000, 2, 120);
  mooc::ServiceOptions sopt;
  sopt.storm_begin_tick = 40;
  sopt.storm_end_tick = 80;
  sopt.storm_transient_rate = 0.97;
  sopt.storm_stall_rate = 0.5;
  mooc::ServiceResult last;
  for (auto _ : state) {
    const mooc::GradingService service(sopt, digest_grade);
    last = service.run(trace);
    benchmark::DoNotOptimize(last.stats.breaker_trips);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.events.size()));
  report_service(state, last);
}
BENCHMARK(BM_ServiceDrainFaultStorm)->Unit(benchmark::kMillisecond);

/// Journal write overhead: the steady-state drain again, but with every
/// decision journaled and flushed once per tick. Compare
/// submissions_per_sec against BM_ServiceDrainSteady -- the durability
/// tax the crash-recovery contract charges (ISSUE 10 budget: <= 5%).
void BM_ServiceJournaledDrain(benchmark::State& state) {
  const auto trace = make_trace(4000, 2, 120);
  mooc::ServiceOptions sopt;
  const auto path = (std::filesystem::temp_directory_path() /
                     "l2l_perf_service_journal.l2lj")
                        .string();
  mooc::RunRequest req;
  req.journal_path = path;
  mooc::ServiceResult last;
  std::int64_t journal_bytes = 0;
  for (auto _ : state) {
    const mooc::GradingService service(sopt, digest_grade);
    util::Status st;
    last = service.run(trace, req, st);
    if (!st.ok()) {
      state.SkipWithError(st.to_string().c_str());
      break;
    }
    benchmark::DoNotOptimize(last.stats.admitted);
  }
  std::error_code ec;
  journal_bytes =
      static_cast<std::int64_t>(std::filesystem::file_size(path, ec));
  std::filesystem::remove(path, ec);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.events.size()));
  state.counters["journal_bytes"] = static_cast<double>(journal_bytes);
  report_service(state, last);
}
BENCHMARK(BM_ServiceJournaledDrain)->Unit(benchmark::kMillisecond);

/// Recovery latency: a semester killed cold at tick 60 of ~120, then
/// restarted with recover=true. The timed region is the full restarted
/// process -- journal scan, verified replay of the pre-crash prefix, and
/// the live completion of the drain. Each iteration restores the halted
/// journal bytes (outside the timer) so recovery always starts from the
/// same torn state.
void BM_ServiceRecovery(benchmark::State& state) {
  const auto trace = make_trace(4000, 2, 120);
  mooc::ServiceOptions sopt;
  const auto path = (std::filesystem::temp_directory_path() /
                     "l2l_perf_service_recovery.l2lj")
                        .string();
  // Prepare the halted journal once; keep its bytes to restore per
  // iteration (the recover run appends past them).
  {
    const mooc::GradingService service(sopt, digest_grade);
    mooc::RunRequest crash;
    crash.journal_path = path;
    crash.halt_after_ticks = 60;
    util::Status st;
    (void)service.run(trace, crash, st);
    if (!st.ok()) {
      state.SkipWithError(st.to_string().c_str());
      return;
    }
  }
  std::string halted_bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    halted_bytes = ss.str();
  }
  mooc::ServiceResult last;
  for (auto _ : state) {
    state.PauseTiming();
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(halted_bytes.data(),
                static_cast<std::streamsize>(halted_bytes.size()));
    }
    state.ResumeTiming();
    const mooc::GradingService service(sopt, digest_grade);
    mooc::RunRequest recover;
    recover.journal_path = path;
    recover.recover = true;
    util::Status st;
    last = service.run(trace, recover, st);
    if (!st.ok()) {
      state.SkipWithError(st.to_string().c_str());
      break;
    }
    benchmark::DoNotOptimize(last.stats.admitted);
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".quarantine", ec);
  state.counters["replayed_ticks"] = 60.0;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.events.size()));
  report_service(state, last);
}
BENCHMARK(BM_ServiceRecovery)->Unit(benchmark::kMillisecond);

/// The headline: a million registered students across four courses, a
/// queue cap orders of magnitude below the deadline-spike arrival rate,
/// zero silent drops. Iterations(1) keeps this a single full-semester
/// drain regardless of --quick; record_outcomes=false holds memory flat
/// at planet scale (the accounting runs off ServiceStats either way).
void BM_ServiceMillionStudentSemester(benchmark::State& state) {
  const auto trace = make_trace(1000000, 4, 400);
  mooc::ServiceOptions sopt;
  sopt.queue_cap = 256;
  sopt.admit_quota = 192;
  sopt.service_rate = 64;
  sopt.record_outcomes = false;
  mooc::ServiceResult last;
  for (auto _ : state) {
    const mooc::GradingService service(sopt, digest_grade);
    last = service.run(trace);
    benchmark::DoNotOptimize(last.stats.admitted);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.events.size()));
  report_service(state, last);
}
BENCHMARK(BM_ServiceMillionStudentSemester)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
