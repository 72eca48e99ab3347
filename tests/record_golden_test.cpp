// Byte pin of every stored record layout: one digest per record kind.
// The engine facades' cache records (sat, bdd, axb, espresso, esop, mls
// through both entry points, place, route, grader.route, grader.place)
// are read back from a fresh disk tier; the submission-outcome record is
// pinned for every OutcomeKind; and the journals of two service runs are
// pinned whole. Between them the two runs write every frame type, every
// replay source, both rejection dispositions and every breaker action
// (JournalsWriteEveryFrameKind checks that). Regenerate with
// L2L_UPDATE_GOLDEN=1 and commit tests/data/golden/record_digests.txt.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "l2l/api.hpp"
#include "mooc/cohort.hpp"
#include "mooc/grading_queue.hpp"
#include "mooc/grading_service.hpp"
#include "mooc/journal.hpp"
#include "network/blif.hpp"
#include "obs/metrics.hpp"
#include "parse_corpus.hpp"
#include "route/solution.hpp"

namespace l2l {
namespace {

std::string digest(const std::string& bytes) {
  return cache::digest_bytes(bytes).hex();
}

std::string data_file(const char* name) {
  return parse_corpus::read_file(std::filesystem::path(L2L_REPO_DATA_DIR) /
                                 name);
}

// ---- service runs ---------------------------------------------------------

std::uint32_t byte_sum(const std::string& s) {
  std::uint32_t sum = 0;
  for (const char c : s) sum += static_cast<unsigned char>(c);
  return sum;
}

double record_grade(const std::string& s, const util::Budget& budget) {
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

mooc::SubmissionTrace make_trace(int students, std::uint32_t ticks, int pool,
                                 std::uint64_t seed) {
  mooc::TraceOptions topt;
  topt.num_students = students;
  topt.num_courses = 2;
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

struct JournalRun {
  std::string name;
  mooc::SubmissionTrace trace;
  mooc::ServiceOptions opt;
  bool warm = false;  ///< run once unjournaled first, journal the rerun
};

std::vector<JournalRun> journal_runs() {
  std::vector<JournalRun> out;
  {
    // Overload with no shed policy (quota and queue-full rejections)
    // through a fault storm (breaker trip, failed probes, recovery).
    auto opt = base_options();
    opt.queue_cap = 16;
    opt.admit_quota = 24;
    opt.service_rate = 6;
    opt.shed_policy = mooc::ShedPolicy::kNone;
    opt.breaker_threshold = 4;
    opt.breaker_probe_interval = 4;
    opt.storm_begin_tick = 20;
    opt.storm_end_tick = 40;
    opt.storm_transient_rate = 0.95;
    opt.storm_stall_rate = 0.3;
    opt.queue.max_retries = 1;
    out.push_back({"storm_none", make_trace(2000, 80, 48, 21), opt});
  }
  {
    // A warm cache_domain rerun that also sheds.
    auto opt = base_options();
    opt.queue_cap = 16;
    opt.admit_quota = 24;
    opt.service_rate = 6;
    opt.shed_policy = mooc::ShedPolicy::kOldestDeadline;
    opt.queue.cache_domain = "record-golden.warm";
    out.push_back({"warm_shed", make_trace(1200, 60, 64, 13), opt, true});
  }
  return out;
}

/// The journal bytes of one run (after its unjournaled cold run, if warm).
/// The path carries the pid: ctest runs each case as its own process, and
/// two cases write these journals.
std::string journal_of(const JournalRun& jr) {
  const std::string path = ::testing::TempDir() + "l2l_record_golden_" +
                           std::to_string(::getpid()) + "_" + jr.name + ".l2lj";
  std::error_code ec;
  std::filesystem::remove(path, ec);
  cache::Cache::global().clear();
  util::Status st;
  const mooc::GradingService service(jr.opt, record_grade);
  if (jr.warm) (void)service.run(jr.trace, {}, st);
  mooc::RunRequest req;
  req.journal_path = path;
  const auto res = service.run(jr.trace, req, st);
  EXPECT_TRUE(st.ok()) << jr.name << ": " << st.to_string();
  EXPECT_TRUE(res.accounting_ok()) << jr.name;
  std::string bytes = parse_corpus::read_file(path);
  std::filesystem::remove(path, ec);
  cache::Cache::global().clear();
  return bytes;
}

class RecordGolden : public parse_corpus::DiskCacheTest {
 protected:
  void TearDown() override {
    parse_corpus::DiskCacheTest::TearDown();
    obs::Registry::global().reset();
  }
};

TEST_F(RecordGolden, RecordsMatchGolden) {
  std::string got;
  auto line = [&](const std::string& name, const std::string& record) {
    EXPECT_FALSE(record.empty()) << name << " stored nothing";
    got += name + " " + digest(record) + "\n";
  };
  auto pin = [&](const std::string& name, auto call) {
    line(name, parse_corpus::persisted_record(dir_, call));
  };

  {
    api::SatRequest req;
    req.dimacs = data_file("sample.cnf");
    pin("sat/sample", [&] { (void)api::solve_sat(req); });
    req.show_stats = true;
    pin("sat/sample_stats", [&] { (void)api::solve_sat(req); });
    req.dimacs = "p cnf 1 2\n1 0\n-1 0\n";
    pin("sat/unsat", [&] { (void)api::solve_sat(req); });
    req.dimacs = "p cnf banana\n";
    pin("sat/parse_error", [&] { (void)api::solve_sat(req); });
  }
  {
    api::BddScriptRequest req;
    req.script = data_file("sample.kbdd");
    pin("bdd/sample", [&] { (void)api::run_bdd_script(req); });
    req.script = "var a\nsize nosuch\n";
    pin("bdd/error", [&] { (void)api::run_bdd_script(req); });
  }
  {
    api::AxbRequest req;
    req.input = data_file("sample.axb");
    pin("axb/sample", [&] { (void)api::solve_axb(req); });
    req.use_cg = true;
    pin("axb/sample_cg", [&] { (void)api::solve_axb(req); });
    req.input = "2\n1 2\n";
    pin("axb/truncated", [&] { (void)api::solve_axb(req); });
  }
  {
    api::EspressoRequest req;
    req.pla = data_file("sample.pla");
    pin("espresso/sample", [&] { (void)api::minimize_pla(req); });
    req.show_stats = true;
    req.exact = true;
    pin("espresso/sample_exact_stats", [&] { (void)api::minimize_pla(req); });
    req.pla = ".i 2\n.o 1\n1x 1\n.e\n";
    pin("espresso/parse_error", [&] { (void)api::minimize_pla(req); });
  }
  {
    api::EsopRequest req;
    req.input = data_file("sample.pla");
    req.show_stats = true;
    pin("esop/sample", [&] { (void)api::synthesize_esop(req); });
    req.input = "0110\n";
    req.show_stats = false;
    pin("esop/xor_row", [&] { (void)api::synthesize_esop(req); });
    req.input = "011\n";
    pin("esop/bad_row", [&] { (void)api::synthesize_esop(req); });
  }
  {
    api::MlsRequest req;
    req.blif = data_file("fulladder.blif");
    pin("mls/optimize_blif", [&] { (void)api::optimize_blif(req); });
    pin("mls/optimize_network", [&] {
      auto net = network::parse_blif(req.blif);
      (void)api::optimize_network(net, req.options);
    });
  }
  for (const std::uint64_t seed : {1u, 2u}) {
    const auto fx = parse_corpus::place_fixture(seed);
    const std::string name = "place" + std::to_string(seed);
    api::PlaceRequest req;
    req.grid = fx.grid;
    pin(name, [&] { (void)api::place_and_legalize(fx.problem, req); });
    for (const auto& up : parse_corpus::place_uploads(fx, seed)) {
      api::PlaceGradeRequest greq;
      greq.submission = up.text;
      greq.reference_hpwl = fx.reference_hpwl;
      pin("grader.place/" + name + "/" + up.name, [&] {
        (void)api::grade_place_submission(fx.problem, fx.grid, greq);
      });
    }
  }
  for (const std::uint64_t seed : {1u, 2u}) {
    const auto fx = parse_corpus::route_fixture(seed);
    const std::string name = "route" + std::to_string(seed);
    pin(name, [&] { (void)api::route_nets(fx.problem, {}); });
    for (const auto& up : parse_corpus::route_uploads(fx)) {
      api::RouteGradeRequest greq;
      greq.submission = up.text;
      pin("grader.route/" + name + "/" + up.name, [&] {
        (void)api::grade_route_submission(fx.problem, greq);
      });
    }
  }

  // The submission-outcome record, once per OutcomeKind.
  const mooc::OutcomeKind kinds[] = {
      mooc::OutcomeKind::kGraded, mooc::OutcomeKind::kFailed,
      mooc::OutcomeKind::kBudget, mooc::OutcomeKind::kExhausted,
      mooc::OutcomeKind::kRejected};
  for (const auto kind : kinds) {
    mooc::SubmissionOutcome o;
    o.kind = kind;
    o.attempts = 1 + static_cast<int>(kind);
    o.backoff_ticks = 3 * static_cast<int>(kind);
    if (kind == mooc::OutcomeKind::kGraded) {
      o.score = 87.25;
    } else {
      o.status = util::Status::internal("grader error\nline two");
      o.diagnostic = "outcome kind " + std::to_string(static_cast<int>(kind));
    }
    line("outcome/" + std::to_string(static_cast<int>(kind)),
         cache::wire::encode(o, mooc::outcome_fields));
  }

  for (const auto& jr : journal_runs())
    line("journal/" + jr.name, journal_of(jr));

  const std::string golden_path =
      L2L_TEST_DATA_DIR "/golden/record_digests.txt";
  if (std::getenv("L2L_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << got;
    GTEST_SKIP() << "golden file regenerated";
  }
  const std::string want = parse_corpus::read_file(golden_path);
  ASSERT_FALSE(want.empty())
      << "missing golden file tests/data/golden/record_digests.txt";
  EXPECT_EQ(got, want) << "actual:\n" << got;
}

TEST_F(RecordGolden, JournalsWriteEveryFrameKind) {
  std::vector<mooc::JournalScan> scans;
  for (const auto& jr : journal_runs()) {
    const std::string path =
        ::testing::TempDir() + "l2l_record_kinds_" + jr.name + ".l2lj";
    std::ofstream(path, std::ios::binary) << journal_of(jr);
    scans.push_back(mooc::scan_journal(path));
    std::filesystem::remove(path);
    ASSERT_TRUE(scans.back().run_complete) << jr.name;
  }
  int quota = 0, full = 0, sheds = 0, outcomes = 0, probes = 0;
  int sources[4] = {0, 0, 0, 0}, actions[3] = {0, 0, 0};
  for (const auto& scan : scans)
    for (const auto& t : scan.ticks) {
      for (const auto& r : t.rejections) {
        quota += r.disposition == mooc::Disposition::kRejectedQuota;
        full += r.disposition == mooc::Disposition::kRejectedFull;
      }
      sheds += static_cast<int>(t.sheds.size());
      for (const auto& r : t.replays) ++sources[static_cast<int>(r.source)];
      for (const auto& o : t.outcomes) {
        ++outcomes;
        probes += o.probe;
      }
      for (const auto& b : t.breakers) ++actions[static_cast<int>(b.action)];
    }
  EXPECT_GT(quota, 0);
  EXPECT_GT(full, 0);
  EXPECT_GT(sheds, 0);
  EXPECT_GT(outcomes, 0);
  EXPECT_GT(probes, 0);
  for (int s = 0; s < 4; ++s) EXPECT_GT(sources[s], 0) << "source " << s;
  for (int a = 0; a < 3; ++a) EXPECT_GT(actions[a], 0) << "action " << a;
}

// ---- forged entries ---------------------------------------------------------

/// Rewrite every entry in `dir` to carry `payload` behind a valid header
/// and check line: a forged record that only decoding can refuse.
void forge_entries(const std::filesystem::path& dir,
                   const std::string& payload) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string text = parse_corpus::read_file(entry.path());
    std::size_t pos = 0;
    for (int line = 0; line < 4; ++line) pos = text.find('\n', pos) + 1;
    const std::string check =
        cache::Digest128{0, cache::digest_bytes(payload).lo}.hex().substr(16);
    std::ofstream(entry.path(), std::ios::binary | std::ios::trunc)
        << text.substr(0, pos) << "bytes " << payload.size() << "\n"
        << "check " << check << "\n"
        << payload;
  }
}

class ForgedRecord : public parse_corpus::DiskCacheTest {};

TEST_F(ForgedRecord, HugeListCountsAreMissesNotExceptions) {
  // One record: a list count of 2^62 with no elements behind it.
  const std::string payload = "19\n4611686018427387904";
  const auto rfx = parse_corpus::route_fixture(1);
  const auto pfx = parse_corpus::place_fixture(1);
  api::PlaceRequest preq;
  preq.grid = pfx.grid;
  api::RouteGradeRequest greq;
  greq.submission = route::write_solution(rfx.reference);

  const auto route_cold = api::route_nets(rfx.problem, {});
  const auto place_cold = api::place_and_legalize(pfx.problem, preq);
  const auto grade_cold = api::grade_route_submission(rfx.problem, greq);
  forge_entries(dir_, payload);
  cache::Cache::global().clear();

  api::RouteResult route_res;
  ASSERT_NO_THROW(route_res = api::route_nets(rfx.problem, {}));
  EXPECT_FALSE(route_res.cached);
  EXPECT_EQ(route::write_solution(route_res.solution),
            route::write_solution(route_cold.solution));

  api::PlaceResult place_res;
  ASSERT_NO_THROW(place_res = api::place_and_legalize(pfx.problem, preq));
  EXPECT_FALSE(place_res.cached);
  EXPECT_EQ(place_res.placement.col, place_cold.placement.col);
  EXPECT_EQ(place_res.placement.row, place_cold.placement.row);

  api::RouteGradeResult grade_res;
  ASSERT_NO_THROW(grade_res = api::grade_route_submission(rfx.problem, greq));
  EXPECT_FALSE(grade_res.cached);
  EXPECT_EQ(grade_res.grade.report, grade_cold.grade.report);
}

}  // namespace
}  // namespace l2l
