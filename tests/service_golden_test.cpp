// Byte-identity pin of the grading service's answers. Per seeded run it
// records every ServiceStats field in clear text, a digest of every
// ServiceOutcome field over blocks of submissions (so a diff names the
// block that moved), and a digest of the deterministic mooc.service.*
// export. The runs walk every path the scheduler and the dedup layer
// take: an overload trace under each shed policy with a queue cap small
// enough to shed, a fault storm that trips, probes and recovers the
// breaker (degraded-memo replays), a duplicate-heavy run with lint
// rejections (lint-memo replays) and a cache_domain cold/warm pair
// (cross-run cache replays). Each run is also journaled, killed mid
// semester and recovered, and must reproduce the same lines.
// Regenerate with L2L_UPDATE_GOLDEN=1 and commit
// tests/data/golden/service_outcome_digests.txt.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "cache/cache.hpp"
#include "mooc/cohort.hpp"
#include "mooc/grading_service.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace l2l {
namespace {

constexpr std::size_t kBlock = 256;

std::uint32_t byte_sum(const std::string& s) {
  std::uint32_t sum = 0;
  for (const char c : s) sum += static_cast<unsigned char>(c);
  return sum;
}

/// Graded, failed (a throw) and budget outcomes, all pure in the bytes.
double golden_grade(const std::string& s, const util::Budget& budget) {
  const std::uint32_t sum = byte_sum(s);
  if (sum % 17 == 0) throw std::runtime_error("poison upload");
  budget.consume(static_cast<std::int64_t>(sum % 64));
  return static_cast<double>(sum % 101) + 0.25;
}

std::vector<util::Diagnostic> checksum_lint(const std::string& body) {
  std::vector<util::Diagnostic> out;
  if (byte_sum(body) % 7 == 0)
    out.push_back(util::make_error(1, 1, "checksum lint tripped"));
  return out;
}

mooc::SubmissionTrace make_trace(int students, int courses,
                                 std::uint32_t ticks, int pool,
                                 std::uint64_t seed) {
  mooc::TraceOptions topt;
  topt.num_students = students;
  topt.num_courses = courses;
  topt.ticks = ticks;
  topt.unique_bodies_per_course = pool;
  util::Rng rng(seed);
  return mooc::generate_submission_trace(topt, rng);
}

mooc::ServiceOptions base_options() {
  mooc::ServiceOptions opt;
  opt.queue.lint = checksum_lint;
  opt.queue.step_limit = 60;
  return opt;
}

struct Scenario {
  std::string name;
  mooc::SubmissionTrace trace;
  mooc::ServiceOptions opt;
  bool warm = false;  ///< run cold first, pin the warm rerun
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  const auto overload = make_trace(2000, 2, 60, 64, 21);
  for (const auto policy :
       {mooc::ShedPolicy::kOldestDeadline, mooc::ShedPolicy::kNewestFirst,
        mooc::ShedPolicy::kNone}) {
    auto opt = base_options();
    opt.queue_cap = 16;
    opt.admit_quota = 24;
    opt.service_rate = 6;
    opt.shed_policy = policy;
    out.push_back({std::string("overload/") + mooc::shed_policy_name(policy),
                   overload, opt});
  }
  {
    auto opt = base_options();
    opt.queue_cap = 48;
    opt.admit_quota = 32;
    opt.service_rate = 8;
    opt.breaker_threshold = 4;
    opt.breaker_probe_interval = 4;
    opt.storm_begin_tick = 20;
    opt.storm_end_tick = 40;
    opt.storm_transient_rate = 0.95;
    opt.storm_stall_rate = 0.3;
    opt.queue.max_retries = 1;
    out.push_back({"storm", make_trace(1500, 2, 80, 48, 5), opt});
  }
  {
    auto opt = base_options();
    opt.queue_cap = 256;
    opt.service_rate = 24;
    out.push_back({"dup_lint", make_trace(1500, 2, 60, 12, 9), opt});
  }
  {
    auto opt = base_options();
    opt.queue.cache_domain = "service-golden.warm";
    out.push_back({"warm", make_trace(800, 1, 40, 96, 13), opt, true});
  }
  return out;
}

std::string outcome_bytes(const mooc::ServiceOutcome& o) {
  std::ostringstream s;
  s << static_cast<int>(o.disposition) << ' ' << static_cast<int>(o.lane)
    << ' ' << o.replayed << ' ' << o.attempts << ' '
    << static_cast<int>(o.status) << ' ' << o.final_tick << ' '
    << o.backoff_ticks << ' ';
  cache::Hasher h;
  h.f64(o.score);
  s << h.finish().hex() << ' ' << o.diagnostic.size() << ':' << o.diagnostic;
  return s.str();
}

/// The pinned lines of one run: stats, outcome-block digests and the
/// mooc.service.* slice of the deterministic export.
std::string describe(const std::string& name, const mooc::ServiceResult& r) {
  const auto& s = r.stats;
  std::ostringstream out;
  out << name << " stats";
  for (const std::int64_t v :
       {s.ticks, s.arrivals, s.admitted, s.rejected_quota, s.rejected_full,
        s.shed, s.graded, s.degraded, s.failed, s.budget_exceeded,
        s.retries_exhausted, s.lint_rejected, s.dedup_hits, s.cache_hits,
        s.breaker_trips, s.breaker_probes, s.breaker_recoveries,
        s.total_attempts, s.injected_transients, s.injected_stalls,
        s.peak_depth_first, s.peak_depth_resubmit})
    out << ' ' << v;
  out << '\n';
  for (std::size_t b = 0; b < r.outcomes.size(); b += kBlock) {
    const std::size_t e = std::min(r.outcomes.size(), b + kBlock);
    cache::Hasher h;
    for (std::size_t i = b; i < e; ++i) h.str(outcome_bytes(r.outcomes[i]));
    out << name << " outcomes " << b << ".." << e << ' ' << h.finish().hex()
        << '\n';
  }
  std::string service_lines;
  std::istringstream lines(obs::Registry::global().export_deterministic_text());
  for (std::string line; std::getline(lines, line);)
    if (line.find(" mooc.service.") != std::string::npos)
      service_lines += line + '\n';
  out << name << " export " << cache::digest_bytes(service_lines).hex()
      << '\n';
  return out.str();
}

void fresh_process() {
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
}

mooc::ServiceResult run(const Scenario& sc, const mooc::RunRequest& req,
                        util::Status& st) {
  fresh_process();
  return mooc::GradingService(sc.opt, golden_grade).run(sc.trace, req, st);
}

/// The scenario's pinned lines from one uninterrupted run (a warm
/// scenario pins both its cold and its warm run).
std::string pinned_lines(const Scenario& sc) {
  util::Status st;
  std::string out;
  cache::Cache::global().clear();
  if (sc.warm) {
    const auto cold = run(sc, {}, st);
    EXPECT_TRUE(st.ok()) << sc.name << ": " << st.to_string();
    out += describe(sc.name + "/cold", cold);
  }
  const auto res = run(sc, {}, st);
  EXPECT_TRUE(st.ok()) << sc.name << ": " << st.to_string();
  EXPECT_TRUE(res.accounting_ok()) << sc.name;
  out += describe(sc.warm ? sc.name + "/warm" : sc.name, res);
  return out;
}

/// The same lines after a kill at `halt` ticks and a recovery. The
/// recovered warm run substitutes its journaled cache verdicts and
/// consults the (still warm) cache only past the journal's end.
std::string recovered_lines(const Scenario& sc, std::int64_t halt) {
  std::string file = sc.name;
  std::replace(file.begin(), file.end(), '/', '_');
  const std::string path = ::testing::TempDir() + "l2l_service_golden_" +
                           std::to_string(::getpid()) + "_" + file + ".l2lj";
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".quarantine", ec);
  util::Status st;
  std::string out;
  cache::Cache::global().clear();
  if (sc.warm) {
    const auto cold = run(sc, {}, st);
    out += describe(sc.name + "/cold", cold);
  }
  mooc::RunRequest crash;
  crash.journal_path = path;
  crash.halt_after_ticks = halt;
  const auto halted = run(sc, crash, st);
  EXPECT_TRUE(st.ok()) << sc.name << ": " << st.to_string();
  EXPECT_TRUE(halted.halted) << sc.name;
  mooc::RunRequest recover;
  recover.journal_path = path;
  recover.recover = true;
  const auto res = run(sc, recover, st);
  EXPECT_TRUE(st.ok()) << sc.name << ": " << st.to_string();
  out += describe(sc.warm ? sc.name + "/warm" : sc.name, res);
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".quarantine", ec);
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class ServiceGolden : public ::testing::Test {
 protected:
  void TearDown() override {
    util::set_num_threads(0);
    fresh_process();
    cache::Cache::global().clear();
  }
};

TEST_F(ServiceGolden, ScenariosCoverEveryReplayPath) {
  util::Status st;
  std::int64_t failed = 0, budget = 0;
  for (const auto& sc : scenarios()) {
    cache::Cache::global().clear();
    if (sc.warm) (void)run(sc, {}, st);
    const auto r = run(sc, {}, st);
    ASSERT_TRUE(st.ok()) << sc.name;
    const auto& s = r.stats;
    std::int64_t lint_memo = 0, degraded_memo = 0;
    for (const auto& o : r.outcomes) {
      lint_memo += o.replayed &&
                   o.disposition == mooc::Disposition::kLintRejected;
      degraded_memo +=
          o.replayed && o.disposition == mooc::Disposition::kDegraded;
    }
    failed += s.failed;
    budget += s.budget_exceeded;
    EXPECT_GT(lint_memo, 0) << sc.name;
    EXPECT_GT(s.dedup_hits, 0) << sc.name;
    if (sc.name.rfind("overload/", 0) == 0) {
      EXPECT_GT(s.rejected_quota, 0) << sc.name;
      if (sc.name == "overload/none") {
        EXPECT_GT(s.rejected_full, 0);
      } else {
        EXPECT_GT(s.shed, 0) << sc.name;
      }
    }
    if (sc.name == "storm") {
      EXPECT_GT(s.breaker_trips, 0);
      EXPECT_GT(s.breaker_probes, 0);
      EXPECT_GT(s.breaker_recoveries, 0);
      EXPECT_GT(degraded_memo, 0);
    }
    if (sc.warm) {
      EXPECT_GT(s.cache_hits, 0) << sc.name;
    }
  }
  EXPECT_GT(failed, 0);
  EXPECT_GT(budget, 0);
}

TEST_F(ServiceGolden, OutcomesMatchGolden) {
  std::string got;
  for (const auto& sc : scenarios()) {
    const std::string lines = pinned_lines(sc);
    // A journaled run killed mid semester recovers to the same answers.
    EXPECT_EQ(recovered_lines(sc, sc.trace.ticks / 2), lines) << sc.name;
    got += lines;
  }

  const std::string golden_path =
      L2L_TEST_DATA_DIR "/golden/service_outcome_digests.txt";
  if (std::getenv("L2L_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << got;
    GTEST_SKIP() << "golden file regenerated";
  }
  const std::string want = read_file(golden_path);
  ASSERT_FALSE(want.empty())
      << "missing golden file tests/data/golden/service_outcome_digests.txt";
  EXPECT_EQ(got, want);
}

TEST_F(ServiceGolden, OutcomesAreThreadCountInvariant) {
  const auto all = scenarios();
  for (const auto& sc : {all[1], all[3]}) {
    std::vector<std::string> seen;
    for (const int threads : {1, 2, 8}) {
      util::set_num_threads(threads);
      seen.push_back(pinned_lines(sc));
    }
    EXPECT_EQ(seen[0], seen[1]) << sc.name << ": threads 1 vs 2";
    EXPECT_EQ(seen[0], seen[2]) << sc.name << ": threads 1 vs 8";
  }
}

}  // namespace
}  // namespace l2l
