#include "semester_workload.hpp"

#include <algorithm>
#include <filesystem>
#include <set>

#include "cache/digest.hpp"
#include "mooc/submission_lint.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace e2e {

using namespace l2l;

Semester make_semester(std::uint64_t seed, const SemesterSize& size) {
  Semester sem;
  util::Rng rng(seed);
  sem.fx = make_fixtures(rng);

  mooc::TraceOptions topt;
  topt.num_students = size.students;
  topt.num_courses = kNumCourses;
  topt.ticks = size.ticks;
  topt.deadline_every = size.deadline_every;
  topt.unique_bodies_per_course = std::max(size.pool_per_course, 1);
  topt.body_bytes = 24;  // placeholder bodies, replaced below
  for (int k = 0; k < std::max(size.schedules, 1); ++k) {
    sem.trace = mooc::generate_submission_trace(topt, rng);
    sem.schedules.push_back(std::move(sem.trace.events));
  }

  // Every artifact is distinct, so a pool really holds `pool` different
  // uploads and the unique semester really grades every arrival.
  ArtifactMaker maker(sem.fx, rng.next_u64());
  std::set<cache::Digest128> seen;
  auto add = [&](Course c) {
    for (;;) {
      Artifact a = maker.make(c);
      if (!seen.insert(cache::digest_bytes(a.body)).second) continue;
      sem.trace.bodies.push_back(std::move(a.body));
      sem.expect.push_back(a.expect);
      return static_cast<std::uint32_t>(sem.trace.bodies.size() - 1);
    }
  };
  sem.trace.bodies.clear();
  if (size.pool_per_course > 0) {
    // generate_submission_trace indexes course c's pool at c * pool + k.
    for (int c = 0; c < kNumCourses; ++c)
      for (int k = 0; k < size.pool_per_course; ++k)
        add(static_cast<Course>(c));
  } else {
    // Within a schedule every upload is its own artifact; the schedules
    // share them, the j-th upload of a course getting its j-th artifact.
    std::vector<std::uint32_t> bank[kNumCourses];
    for (auto& events : sem.schedules) {
      std::size_t next[kNumCourses] = {};
      for (auto& ev : events) {
        const int c = static_cast<int>(ev.course % kNumCourses);
        auto& course_bank = bank[c];
        if (next[c] == course_bank.size())
          course_bank.push_back(add(static_cast<Course>(c)));
        ev.body = course_bank[next[c]++];
      }
    }
  }
  return sem;
}

SemesterRep run_semester(Semester& sem, std::size_t schedule,
                         const SemesterSize& size, bool traced,
                         const std::string& journal_path) {
  sem.trace.events = sem.schedules[schedule % sem.schedules.size()];
  cold_start();
  obs::set_enabled(traced);
  LayerClock clock;
  LayerClock* timer = traced ? &clock : nullptr;

  // Admission and queue bounds far above any course's peak: both
  // semesters shed and reject nothing, so every arrival owes a verdict.
  mooc::ServiceOptions sopt;
  sopt.queue_cap = 1 << 24;
  sopt.admit_quota = 1 << 24;
  sopt.service_rate = size.service_rate;
  sopt.queue.lint = [lint = mooc::sema_submission_lint(true),
                     timer](const std::string& body) {
    LayerClock::Scope t(timer, kSema);
    return lint(body);
  };
  const Fixtures& fx = sem.fx;
  const mooc::GradingService service(
      sopt, [&fx, timer](const std::string& body, const util::Budget&) {
        return grade_artifact(fx, body, timer);
      });

  std::error_code ec;
  std::filesystem::remove(journal_path, ec);
  mooc::RunRequest req;
  req.journal_path = journal_path;
  util::Status status;
  const auto t0 = Clock::now();
  const mooc::ServiceResult res = service.run(sem.trace, req, status);
  SemesterRep rep;
  rep.wall_s = seconds_since(t0);
  rep.journal_bytes =
      static_cast<std::int64_t>(std::filesystem::file_size(journal_path, ec));
  std::filesystem::remove(journal_path, ec);
  std::filesystem::remove(journal_path + ".quarantine", ec);

  const auto& events = sem.trace.events;
  rep.stats = res.stats;
  rep.arrivals = static_cast<std::int64_t>(events.size());
  rep.accounting_ok = status.ok() && res.accounting_ok() && !res.halted &&
                      res.outcomes.size() == events.size();
  if (!rep.accounting_ok) {
    rep.failed = rep.arrivals;
    return rep;
  }
  for (std::size_t i = 0; i < events.size(); ++i)
    if (!sem.expect[events[i].body].accepts(res.outcomes[i])) ++rep.failed;

  // Turnaround: the wall time of every tick from arrival through the
  // tick that finished the submission -- what a student waits.
  std::vector<std::int64_t> prefix(res.tick_duration_us.size() + 1, 0);
  for (std::size_t t = 0; t < res.tick_duration_us.size(); ++t)
    prefix[t + 1] = prefix[t] + res.tick_duration_us[t];
  std::vector<double> turnaround_ms;
  turnaround_ms.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto first = std::min<std::size_t>(events[i].arrival_tick,
                                              prefix.size() - 1);
    const auto last = std::min<std::size_t>(res.outcomes[i].final_tick + 1,
                                            prefix.size() - 1);
    turnaround_ms.push_back(
        static_cast<double>(prefix[last] - prefix[first]) / 1e3);
  }
  rep.turnaround_p50_ms = percentile(turnaround_ms, 50.0);
  rep.turnaround_p99_ms = percentile(std::move(turnaround_ms), 99.0);
  if (!traced) return rep;

  // Per-layer: the tick wall splits into the parallel grading batch (the
  // union of the workers' mooc.service.grade spans) and everything the
  // scheduler does sequentially around it.
  const auto grade_spans = span_intervals("mooc.service.grade");
  std::int64_t busy_us = 0;
  for (const auto& [b, e] : grade_spans) busy_us += e - b;
  const std::int64_t batch_us = union_length(grade_spans);
  const std::int64_t tick_us = prefix.back();
  const auto snap = obs::Registry::global().snapshot();
  auto& l = rep.layers;
  l["layer.service.sched_ms"] = static_cast<double>(tick_us - batch_us) / 1e3;
  l["layer.service.batch_ms"] = static_cast<double>(batch_us) / 1e3;
  l["service.batch_utilization"] =
      batch_us > 0 ? static_cast<double>(busy_us) /
                         (static_cast<double>(batch_us) * util::num_threads())
                   : 0.0;
  l["layer.unattributed_ms"] = rep.wall_s * 1e3 - static_cast<double>(tick_us) / 1e3;
  for (const char* name :
       {"journal.bytes_appended", "journal.frames_appended", "journal.flushes",
        "sema.findings", "obs.trace.dropped"})
    l[name] = static_cast<double>(counter(snap, name));
  l["service.dedup_ratio"] =
      res.stats.admitted > 0 ? static_cast<double>(res.stats.dedup_hits) /
                                   static_cast<double>(res.stats.admitted)
                             : 0.0;
  std::int64_t hits = 0, lookups = 0;
  for (const char* engine : {"grader.route", "grader.place", "espresso", "sat"}) {
    const auto h = counter(snap, std::string("cache.hit.") + engine);
    hits += h;
    lookups += h + counter(snap, std::string("cache.miss.") + engine);
  }
  l["cache.grader_hit_ratio"] =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0;
  const struct {
    Layer layer;
    const char* ms;
    const char* calls;
  } timed[] = {
      {kSema, "layer.sema.ms", "layer.sema.calls"},
      {kGradeRoute, "layer.grade.route_ms", "layer.grade.route.calls"},
      {kGradePlace, "layer.grade.place_ms", "layer.grade.place.calls"},
      {kGradePla, "layer.grade.pla_ms", "layer.grade.pla.calls"},
      {kGradeCnf, "layer.grade.cnf_ms", "layer.grade.cnf.calls"},
  };
  double wrapped_ms = 0.0;
  for (const auto& t : timed) {
    l[t.ms] = clock.ms(t.layer);
    l[t.calls] = static_cast<double>(clock.calls(t.layer));
    wrapped_ms += clock.ms(t.layer);
  }
  // Worker time inside mooc.service.grade that neither the lint nor the
  // grade wrapper accounts for: the attempt loop, fault draws, budget.
  l["layer.service.worker_self_ms"] =
      static_cast<double>(busy_us) / 1e3 - wrapped_ms;
  l["service.wait_ticks_p50"] =
      histogram_percentile(snap, "mooc.service.wait_ticks", 50.0);
  l["service.wait_ticks_p99"] =
      histogram_percentile(snap, "mooc.service.wait_ticks", 99.0);
  l["service.batch_size_mean"] =
      histogram_mean(snap, "mooc.service.batch_size");
  return rep;
}

}  // namespace e2e
