// The end-to-end benchmark: the two paths a learner waits on, timed
// whole, with a separate traced run breaking each into its layers.
//
//   l2l_e2ebench --workload flow|semester_dup|semester_unique --seed N
//                --seconds S --trace 0|1 [--work-dir DIR]
//   l2l_e2ebench --self-check [--work-dir DIR]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics with the
// obs layer off; --trace 1 reports the per-layer metrics. The worker
// count is L2L_THREADS, which run.py pins. See README.md.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "flow_workload.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"
#include "semester_workload.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace {

using namespace e2e;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/run";
  bool self_check = false;
};

/// Setup (inputs, artifacts, expected verdicts, trace) runs at least this
/// many times per run, and for at least this long; setup_s is the median.
/// The flow's set-up takes milliseconds, so the time floor gives it
/// hundreds of samples instead of five at process start, and it is timed
/// again for kFlowSetupSeconds before every pass: its speed follows the
/// host's memory contention, which shifts within a run.
constexpr int kSetups = 5;
constexpr double kSetupSeconds = 0.5;
constexpr double kFlowSetupSeconds = 0.2;

/// Every per-layer metric, printed by every traced run (0 where a layer
/// does not run on the workload).
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"layer.route.ms", "ms"},
    {"layer.mls.ms", "ms"},
    {"layer.techmap.ms", "ms"},
    {"layer.place.ms", "ms"},
    {"layer.timing.ms", "ms"},
    {"route.expansions", "count"},
    {"route.negotiation_iterations", "count"},
    {"route.ripups", "count"},
    {"route.expansions_per_routed_net", "count"},
    {"place.cg_iterations", "count"},
    {"flow.unrouted_nets", "count"},
    {"flow.wirelength", "cells"},
    {"layer.service.sched_ms", "ms"},
    {"layer.service.batch_ms", "ms"},
    {"layer.service.worker_self_ms", "ms"},
    {"service.batch_utilization", "ratio"},
    {"journal.bytes_appended", "bytes"},
    {"journal.frames_appended", "count"},
    {"journal.flushes", "count"},
    {"service.dedup_ratio", "ratio"},
    {"cache.grader_hit_ratio", "ratio"},
    {"layer.grade.route_ms", "ms"},
    {"layer.grade.route.calls", "count"},
    {"layer.grade.place_ms", "ms"},
    {"layer.grade.place.calls", "count"},
    {"layer.grade.pla_ms", "ms"},
    {"layer.grade.pla.calls", "count"},
    {"layer.grade.cnf_ms", "ms"},
    {"layer.grade.cnf.calls", "count"},
    {"layer.sema.ms", "ms"},
    {"layer.sema.calls", "count"},
    {"sema.findings", "count"},
    {"service.wait_ticks_p50", "ticks"},
    {"service.wait_ticks_p99", "ticks"},
    {"service.batch_size_mean", "count"},
    {"layer.unattributed_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

/// The two semesters. dup: ~200k arrivals over 200 ticks and a
/// 32-artifact pool per course, so nearly every upload is an in-run dedup
/// replay. unique: ~3.5k arrivals, every one a distinct artifact that
/// reaches a grader, packed into one 20-tick homework period so the
/// deadline ticks hold hundreds of uploads (the p99 turnaround is the
/// busiest tick's wall, a sum over many gradings instead of a few). Its
/// turnaround rests on how the arrivals fall into ticks, so its
/// repetitions cycle through 7 arrival schedules (odd, so the untraced
/// and traced repetitions of a traced run both see every one).
SemesterSize semester_size(const std::string& workload) {
  if (workload == "semester_dup") return {230000, 32, 512, 200, 25, 1};
  return {4000, 0, 512, 40, 20, 7};
}

const FlowSize kFlowSize{96, 16};

/// Everything a run measured, before it becomes metrics.
struct Samples {
  double ops_per_s = 0.0, p50_ms = 0.0, tail_ms = 0.0;
  std::vector<double> untraced_wall_s, traced_wall_s;
  std::vector<std::map<std::string, double>> layers;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool deterministic = true;  ///< repeated reps agreed on every count
  double setup_s = 0.0;
  double tail_pct = 0.0;
};

double median_of(const std::vector<std::map<std::string, double>>& reps,
                 const std::string& name) {
  std::vector<double> v;
  for (const auto& r : reps) {
    const auto it = r.find(name);
    v.push_back(it == r.end() ? 0.0 : it->second);
  }
  return median(std::move(v));
}

/// Builds `out` at least `min_builds` times and for at least `min_s`
/// seconds, appending each build's time to `times`. The previous value is
/// dropped before each build, so the process never holds two sets of
/// inputs and peak_rss_mb stays the service's memory.
template <typename T, typename Make>
void time_setups(T& out, Make make, int min_builds, double min_s,
                 std::vector<double>& times) {
  const auto start = Clock::now();
  for (int k = 0; k < min_builds || seconds_since(start) < min_s; ++k) {
    out = T{};
    const auto t0 = Clock::now();
    out = make();
    times.push_back(seconds_since(t0));
  }
}

/// Repetitions until `seconds` have passed (at least `min_reps`). In a
/// traced run every second repetition is traced, so the untraced ones
/// give the tracing overhead.
void repeat(const Options& opt, int min_reps,
            const std::function<void(bool traced)>& rep) {
  const auto t0 = Clock::now();
  for (int k = 0; k < min_reps || seconds_since(t0) < opt.seconds; ++k)
    rep(opt.trace && k % 2 == 1);
}

/// The flow's end-to-end metrics pool every untraced pass: throughput is
/// all designs over all run_flow wall, and the percentiles are taken over
/// every per-design latency of the run, not per pass.
Samples run_flow_workload(const Options& opt) {
  Samples s;
  std::vector<FlowDesign> designs;
  const auto make = [&] { return make_flow_designs(opt.seed, kFlowSize); };
  std::vector<double> setup_s;
  time_setups(designs, make, kSetups, kSetupSeconds, setup_s);
  s.tail_pct = 90.0;  // >= 100 designs, so >= 10 lie beyond p90
  std::vector<double> latency_ms;
  double wall_s = 0.0;
  std::int64_t unrouted = -1;
  double wirelength = -1.0;
  repeat(opt, opt.trace ? 2 : 1, [&](bool traced) {
    time_setups(designs, make, 1, kFlowSetupSeconds, setup_s);
    FlowPass pass = run_flow_pass(designs, traced);
    s.attempted += static_cast<std::int64_t>(designs.size());
    s.failed += pass.failed;
    if (unrouted >= 0 &&
        (pass.unrouted_nets != unrouted || pass.wirelength != wirelength))
      s.deterministic = false;
    unrouted = pass.unrouted_nets;
    wirelength = pass.wirelength;
    (traced ? s.traced_wall_s : s.untraced_wall_s).push_back(pass.wall_s);
    std::fprintf(stderr, "# pass %s wall %.4f s\n",
                 traced ? "traced" : "untraced", pass.wall_s);
    if (traced) {
      pass.layers["flow.unrouted_nets"] = static_cast<double>(unrouted);
      pass.layers["flow.wirelength"] = wirelength;
      s.layers.push_back(std::move(pass.layers));
      return;
    }
    wall_s += pass.wall_s;
    latency_ms.insert(latency_ms.end(), pass.latency_ms.begin(),
                      pass.latency_ms.end());
  });
  s.setup_s = median(std::move(setup_s));
  s.ops_per_s = static_cast<double>(latency_ms.size()) / wall_s;
  s.p50_ms = percentile(latency_ms, 50.0);
  s.tail_ms = percentile(std::move(latency_ms), s.tail_pct);
  return s;
}

Samples run_semester_workload(const Options& opt) {
  Samples s;
  const SemesterSize size = semester_size(opt.workload);
  Semester sem;
  std::vector<double> setup_s;
  time_setups(sem, [&] { return make_semester(opt.seed, size); }, kSetups,
              kSetupSeconds, setup_s);
  s.setup_s = median(std::move(setup_s));
  s.tail_pct = 99.0;  // thousands of submissions per repetition
  std::filesystem::create_directories(opt.work_dir);
  const std::string journal =
      (std::filesystem::path(opt.work_dir) /
       (opt.workload + "-" + std::to_string(opt.seed) + ".l2lj"))
          .string();
  std::map<std::size_t, l2l::mooc::ServiceStats> first;  // per schedule
  std::size_t reps = 0;
  std::vector<double> ops_per_s, p50_ms, tail_ms;
  repeat(opt, opt.trace ? 4 : 3, [&](bool traced) {
    const std::size_t schedule = reps++ % sem.schedules.size();
    SemesterRep rep = run_semester(sem, schedule, size, traced, journal);
    s.attempted += rep.arrivals;
    s.failed += rep.failed;
    if (const auto it = first.find(schedule);
        it != first.end() && !(rep.stats == it->second))
      s.deterministic = false;
    first.emplace(schedule, rep.stats);
    (traced ? s.traced_wall_s : s.untraced_wall_s).push_back(rep.wall_s);
    std::fprintf(stderr, "# drain %s wall %.4f s p50 %.3f ms p99 %.3f ms\n",
                 traced ? "traced" : "untraced", rep.wall_s,
                 rep.turnaround_p50_ms, rep.turnaround_p99_ms);
    if (traced) {
      s.layers.push_back(std::move(rep.layers));
      return;
    }
    ops_per_s.push_back(static_cast<double>(rep.stats.admitted) / rep.wall_s);
    p50_ms.push_back(rep.turnaround_p50_ms);
    tail_ms.push_back(rep.turnaround_p99_ms);
  });
  s.ops_per_s = median(std::move(ops_per_s));
  s.p50_ms = median(std::move(p50_ms));
  s.tail_ms = median(std::move(tail_ms));
  return s;
}

void print_layer_breakdown(const std::string& workload, const RunResult& r) {
  std::map<std::string, double> v;
  for (const auto& m : r.metrics) v[m.name] = m.value;
  auto line = [](const char* name, double ms, double whole) {
    std::printf("  %-34s %12.3f ms  %6.2f%%\n", name, ms,
                whole > 0 ? 100.0 * ms / whole : 0.0);
  };
  if (workload == "flow") {
    const double whole = v["layer.mls.ms"] + v["layer.techmap.ms"] +
                         v["layer.place.ms"] + v["layer.route.ms"] +
                         v["layer.timing.ms"] + v["layer.unattributed_ms"];
    std::printf("# self time per pass (share of summed run_flow wall):\n");
    for (const char* n : {"layer.mls.ms", "layer.techmap.ms", "layer.place.ms",
                          "layer.route.ms", "layer.timing.ms",
                          "layer.unattributed_ms"})
      line(n, v[n], whole);
  } else {
    const double whole = v["layer.service.sched_ms"] +
                         v["layer.service.batch_ms"] +
                         v["layer.unattributed_ms"];
    std::printf("# wall time per drain (share of GradingService::run):\n");
    for (const char* n : {"layer.service.sched_ms", "layer.service.batch_ms",
                          "layer.unattributed_ms"})
      line(n, v[n], whole);
    const double busy = v["layer.service.batch_ms"] *
                        l2l::util::num_threads() *
                        v["service.batch_utilization"];
    std::printf("# worker busy time inside the batch (share of busy):\n");
    for (const char* n :
         {"layer.sema.ms", "layer.grade.route_ms", "layer.grade.place_ms",
          "layer.grade.pla_ms", "layer.grade.cnf_ms",
          "layer.service.worker_self_ms"})
      line(n, v[n], busy);
  }
  std::printf("# tracing overhead: %+.2f%% wall vs the untraced repetitions\n",
              v["trace.overhead_pct"]);
}

int run(const Options& opt) {
  l2l::obs::set_enabled(false);
  Samples s;
  if (opt.workload == "flow") {
    s = run_flow_workload(opt);
  } else if (opt.workload == "semester_dup" ||
             opt.workload == "semester_unique") {
    s = run_semester_workload(opt);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }

  RunResult r;
  r.attempted = s.attempted;
  r.failed = s.failed;
  r.correct = s.failed == 0 && s.deterministic;
  if (opt.trace) {
    for (const auto& layer : s.layers)
      if (const auto it = layer.find("obs.trace.dropped");
          it != layer.end() && it->second > 0) {
        // A full event buffer drops spans: the per-layer numbers would be
        // missing work, not merely noisy, so report none.
        std::fprintf(stderr,
                     "obs.trace.dropped = %.0f: per-layer numbers would be "
                     "incomplete; refusing to report them\n",
                     it->second);
        return 1;
      }
    for (const auto& [name, unit] : kLayerMetrics) {
      double value = median_of(s.layers, name);
      if (name == "trace.overhead_pct")
        value = 100.0 * (median(s.traced_wall_s) / median(s.untraced_wall_s) -
                         1.0);
      r.add(name, value, unit);
    }
  } else {
    r.add("setup_s", s.setup_s, "s");
    r.add("peak_rss_mb", peak_rss_mb(), "MB");
    r.add("ops_per_s", s.ops_per_s, "1/s");
    r.add("latency_p50_ms", s.p50_ms, "ms");
    r.add("latency_tail_ms", s.tail_ms, "ms");
  }

  std::printf("# workload %s seed %llu threads %d repetitions %zu (%zu traced)\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              l2l::util::num_threads(),
              s.untraced_wall_s.size() + s.traced_wall_s.size(),
              s.traced_wall_s.size());
  std::printf("fail_frac %.6g ratio (%lld of %lld)%s\n",
              s.attempted > 0 ? static_cast<double>(s.failed) /
                                    static_cast<double>(s.attempted)
                              : 0.0,
              static_cast<long long>(s.failed),
              static_cast<long long>(s.attempted),
              s.deterministic ? "" : "  NONDETERMINISTIC counts");
  if (!opt.trace)
    std::printf("# latency_tail_ms is p%.0f\n", s.tail_pct);
  for (const auto& m : r.metrics)
    std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  if (opt.trace) print_layer_breakdown(opt.workload, r);
  std::printf("%s\n", to_json(r).c_str());
  return 0;
}

// ---- self-check --------------------------------------------------------------

int self_check(const Options& opt) {
  l2l::obs::set_enabled(false);
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  // flow: tiny design set, same seed twice, then traced.
  const auto designs = make_flow_designs(7, FlowSize{6, 0});
  const FlowPass a = run_flow_pass(designs, false);
  const FlowPass b = run_flow_pass(designs, false);
  check(a.failed == 0, "flow: every run_flow status ok and route legal");
  check(a.unrouted_nets == b.unrouted_nets && a.wirelength == b.wirelength,
        "flow: same seed reproduces unrouted nets and wirelength");
  const FlowPass t = run_flow_pass(designs, true);
  check(t.layers.at("layer.route.ms") > 0 && t.layers.at("layer.mls.ms") > 0 &&
            t.layers.at("obs.trace.dropped") == 0,
        "flow: traced pass reports stage spans, nothing dropped");

  std::filesystem::create_directories(opt.work_dir);
  const std::string journal =
      (std::filesystem::path(opt.work_dir) / "self-check.l2lj").string();
  for (const SemesterSize size :
       {SemesterSize{2000, 4, 64}, SemesterSize{300, 0, 64, 200, 25, 2}}) {
    const std::string name = size.pool_per_course > 0 ? "semester_dup"
                                                      : "semester_unique";
    Semester sem = make_semester(11, size);
    const SemesterRep r1 = run_semester(sem, 0, size, false, journal);
    const SemesterRep r2 = run_semester(sem, 0, size, true, journal);
    check(r1.accounting_ok && r1.stats.shed == 0 && r1.stats.rejected() == 0,
          name + ": admitted + rejected + shed == arrivals, none shed");
    check(r1.failed == 0 &&
              run_semester(sem, sem.schedules.size() - 1, size, false, journal)
                      .failed == 0,
          name + ": every verdict matches its artifact, on every schedule");
    check(r1.stats == r2.stats && r1.journal_bytes == r2.journal_bytes,
          name + ": same seed reproduces every count and the journal size");
    check(r2.layers.at("layer.sema.calls") > 0 &&
              r2.layers.at("journal.flushes") > 0 &&
              r2.layers.at("obs.trace.dropped") == 0,
          name + ": traced drain reports sema, journal and batch layers");
    const Semester again = make_semester(11, size);
    check(again.trace.bodies == sem.trace.bodies && again.expect.size() ==
              sem.expect.size(),
          name + ": same seed regenerates the same artifacts");
    // Flip one expected verdict: the benchmark must notice.
    Verdict& v = sem.expect[sem.trace.events.front().body];
    v.lint_rejected = !v.lint_rejected;
    const SemesterRep flipped = run_semester(sem, 0, size, false, journal);
    check(flipped.failed > 0, name + ": a flipped expected verdict is caught");
  }
  std::printf("self-check: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-check") {
      opt.self_check = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      char* end = nullptr;
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (arg == "--seconds") {
      const auto v = l2l::util::parse_double(value);
      if (!v || *v <= 0) return false;
      opt.seconds = *v;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      opt.trace = value == "1";
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else {
      return false;
    }
  }
  return opt.self_check || !opt.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: l2l_e2ebench --workload flow|semester_dup|"
                 "semester_unique --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR]\n"
                 "       l2l_e2ebench --self-check [--work-dir DIR]\n");
    return 2;
  }
  l2l::cache::set_enabled(true);
  try {
    return opt.self_check ? self_check(opt) : run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "l2l_e2ebench: %s\n", e.what());
    return 1;
  }
}
