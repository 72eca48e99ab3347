// The hardened-grading-service contract, exercised end to end:
//
//   1. No parser may terminate or hang the process on hostile text. The
//      strict parsers throw a typed std::exception with a useful message;
//      the lenient ones return line/column-anchored diagnostics.
//   2. Graders never throw. Malformed submissions score 0 (or partial
//      credit for the salvageable nets) and carry diagnostics.
//   3. Every Budget-accepting engine stops within its guard on
//      adversarial input and hands back a partial result plus a Status.
//   4. The per-submission attempt loop degrades gracefully: non-poison
//      submissions still grade correctly, poison yields diagnostics.
//   5. The GradingService, the one grading pipeline, survives overload,
//      fault storms and the hostile corpus behind a real grader, with
//      bit-identical results at any thread count.
//
// Hostile fixtures live in tests/data/hostile/ (see its README); the
// 10 MB single-line submission is generated here rather than checked in.

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "api/esop.hpp"
#include "bdd/bdd.hpp"
#include "bdd/manager.hpp"
#include "esop/esop.hpp"
#include "espresso/pla.hpp"
#include "tt/truth_table.hpp"
#include "flow/flow.hpp"
#include "gen/function_gen.hpp"
#include "gen/placement_gen.hpp"
#include "gen/routing_gen.hpp"
#include "grader/place_grader.hpp"
#include "grader/route_grader.hpp"
#include "linalg/cg.hpp"
#include "linalg/sparse.hpp"
#include "mooc/cohort.hpp"
#include "mooc/grading_queue.hpp"
#include "mooc/grading_service.hpp"
#include "network/blif.hpp"
#include "place/legalize.hpp"
#include "place/quadratic.hpp"
#include "place/wirelength.hpp"
#include "route/router.hpp"
#include "route/solution.hpp"
#include "sat/dimacs.hpp"
#include "sat/solver.hpp"
#include "util/budget.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"

namespace l2l {
namespace {

std::string hostile_path(const std::string& name) {
  return std::string(L2L_TEST_DATA_DIR) + "/hostile/" + name;
}

std::string load(const std::string& name) {
  std::ifstream in(hostile_path(name), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing corpus file " << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

const std::vector<std::string>& corpus() {
  static const std::vector<std::string> kFiles = {
      "truncated.cnf",      "huge_header.cnf",  "bad_literals.cnf",
      "truncated.blif",     "garbage.blif",     "truncated.pla",
      "garbage.pla",        "garbage_route.sol", "out_of_range_route.sol",
      "huge_grid.problem",  "bad_placement.txt", "binary.junk",
      "huge_arity.pla",     "esop_overwide.pla", "esop_contradiction.pla"};
  return kFiles;
}

/// A 10 MB single-line submission: the pathological paste. Generated
/// in-test so the repository stays small.
std::string ten_megabyte_line() {
  std::string s;
  s.reserve(10'000'000);
  while (s.size() < 10'000'000) s += "net 0 (1 2 x ";
  return s;
}

/// Run `fn` expecting it to either succeed or throw a typed
/// std::exception. Anything else -- a non-std exception, a crash, a
/// hang past the test timeout -- fails the suite, which is the point.
template <typename Fn>
void parse_or_typed_throw(const std::string& label, Fn&& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    EXPECT_FALSE(std::string(e.what()).empty())
        << label << ": exception with no message";
  }
}

// ---------------------------------------------------------------------------
// 0. The exact-ESOP facade: hostile text in, typed Status out, never an
//    allocation proportional to an attacker-chosen header and never a
//    wrong answer (a failed model verification is exit 5, and the engine
//    refuses to print it as a result).

TEST(HostileEsop, FacadeSurvivesWholeCorpus) {
  for (const auto& name : corpus()) {
    api::EsopRequest req;
    req.input = load(name);
    req.use_cache = false;
    req.max_terms = 8;  // keep even accidentally-valid inputs fast
    const auto res = api::synthesize_esop(req);
    EXPECT_TRUE(res.exit_code == util::kExitOk ||
                res.exit_code == util::kExitParse ||
                res.exit_code == util::kExitBudget)
        << name << ": exit " << res.exit_code << " ("
        << res.status.to_string() << ")";
  }
}

TEST(HostileEsop, OversizedArityRejectedBeforeAllocation) {
  // .i 99999999 dies in PLA header validation; .i 17 parses but must be
  // refused by the facade's pre-allocation arity gate -- a 2^17 truth
  // table is never materialized for it.
  for (const char* name : {"huge_arity.pla", "esop_overwide.pla"}) {
    api::EsopRequest req;
    req.input = load(name);
    req.use_cache = false;
    const auto res = api::synthesize_esop(req);
    EXPECT_EQ(res.exit_code, util::kExitParse) << name;
    EXPECT_FALSE(res.status.ok()) << name;
  }
  // The engine's own defensive gate (facade bypassed).
  const auto r = esop::synthesize_minimum(tt::TruthTable(esop::kMaxVars + 1));
  EXPECT_EQ(r.status.code, util::StatusCode::kInvalidInput);
}

TEST(HostileEsop, ContradictoryAndEmptyCoversRejected) {
  for (const std::string input :
       {load("esop_contradiction.pla"), std::string(""), std::string("\n\n"),
        std::string("# only a comment\n")}) {
    api::EsopRequest req;
    req.input = input;
    req.use_cache = false;
    const auto res = api::synthesize_esop(req);
    EXPECT_EQ(res.exit_code, util::kExitParse)
        << "input: " << input.substr(0, 40);
  }
}

TEST(HostileEsop, BudgetExhaustionIsPartialStatusNotThrow) {
  api::EsopRequest req;
  req.input = "0110100110010110\n";
  req.prop_limit = 0;
  req.show_stats = true;
  req.use_cache = false;
  const auto res = api::synthesize_esop(req);
  EXPECT_EQ(res.exit_code, util::kExitBudget);
  EXPECT_EQ(res.status.code, util::StatusCode::kBudgetExceeded);
  // The stats channel still reports the proven bracket.
  EXPECT_NE(res.stats_output.find("partial"), std::string::npos)
      << res.stats_output;
}

TEST(HostileEsop, TenMegabytePasteIsRejectedQuickly) {
  api::EsopRequest req;
  req.input = ten_megabyte_line();
  req.use_cache = false;
  const auto res = api::synthesize_esop(req);
  EXPECT_EQ(res.exit_code, util::kExitParse);
}

// ---------------------------------------------------------------------------
// 1. Parsers survive the whole corpus.

TEST(HostileParsers, EveryStrictParserEveryFile) {
  for (const auto& name : corpus()) {
    const auto text = load(name);
    parse_or_typed_throw("parse_dimacs(" + name + ")",
                         [&] { sat::parse_dimacs(text); });
    parse_or_typed_throw("parse_blif(" + name + ")",
                         [&] { network::parse_blif(text); });
    parse_or_typed_throw("parse_pla(" + name + ")",
                         [&] { espresso::parse_pla(text); });
    parse_or_typed_throw("parse_problem(" + name + ")",
                         [&] { route::parse_problem(text); });
    parse_or_typed_throw("parse_solution(" + name + ")",
                         [&] { route::parse_solution(text); });
    parse_or_typed_throw("parse_placement_text(" + name + ")",
                         [&] { grader::parse_placement_text(text, 16); });
  }
}

TEST(HostileParsers, LenientParsersNeverThrow) {
  for (const auto& name : corpus()) {
    const auto text = load(name);
    EXPECT_NO_THROW({
      const auto parsed = route::parse_solution_lenient(text);
      for (const auto& d : parsed.diagnostics) EXPECT_GE(d.line, 0);
    }) << name;
    EXPECT_NO_THROW(grader::placement_diagnostics(
        place::parse_placement_lenient(text, 16)))
        << name;
    EXPECT_NO_THROW({
      const auto parsed = route::parse_problem_lenient(text);
      for (const auto& d : parsed.defects) EXPECT_GE(d.line, 0);
    }) << name;
  }
}

TEST(HostileParsers, ResourceExhaustionHeadersRejectedUpFront) {
  // These must throw from header validation, never reach an allocation.
  EXPECT_THROW(sat::parse_dimacs(load("huge_header.cnf")),
               std::invalid_argument);
  EXPECT_THROW(route::parse_problem(load("huge_grid.problem")),
               std::invalid_argument);
}

TEST(HostileParsers, DiagnosticsAreAnchoredAndTruncated) {
  const auto parsed = route::parse_solution_lenient(load("garbage_route.sol"));
  ASSERT_FALSE(parsed.clean());
  // The bad cell "(1 0 zebra)" is on line 4 of the fixture.
  bool found = false;
  for (const auto& d : parsed.diagnostics)
    if (d.line == 4 && d.message.find("bad cell") != std::string::npos)
      found = true;
  EXPECT_TRUE(found);
  // The well-formed net 1 block was salvaged.
  ASSERT_EQ(parsed.solution.nets.size(), 1u);
  EXPECT_EQ(parsed.solution.nets[0].net_id, 1);

  // A megabyte-long line must be excerpted, not embedded.
  const auto huge = route::parse_solution_lenient(ten_megabyte_line());
  ASSERT_FALSE(huge.clean());
  for (const auto& d : huge.diagnostics) EXPECT_LT(d.message.size(), 200u);
}

TEST(HostileParsers, PlacementParserCollectsAllProblemsInOnePass) {
  const auto text = load("bad_placement.txt");
  const auto parsed = place::parse_placement_lenient(text, 8);
  ASSERT_FALSE(parsed.clean());
  // One pass reports the bad number, the out-of-range index, the junk
  // line, the duplicate, and the missing cells -- at least 4 findings.
  const auto diagnostics = grader::placement_diagnostics(parsed);
  EXPECT_GE(diagnostics.size(), 4u);
  bool out_of_range = false, duplicate = false, missing = false;
  for (const auto& d : diagnostics) {
    if (d.message.find("out of range") != std::string::npos) out_of_range = true;
    if (d.message.find("twice") != std::string::npos) duplicate = true;
    if (d.message.find("missing") != std::string::npos) missing = true;
  }
  EXPECT_TRUE(out_of_range);
  EXPECT_TRUE(duplicate);
  EXPECT_TRUE(missing);
}

// ---------------------------------------------------------------------------
// 2. Graders never throw; salvageable work earns partial credit.

class HostileGraders : public ::testing::Test {
 protected:
  void SetUp() override {
    util::Rng rng(42);
    gen::RoutingGenOptions ropt;
    ropt.width = ropt.height = 16;
    ropt.num_nets = 6;
    rp_ = gen::generate_routing(ropt, rng);

    gen::PlacementGenOptions popt;
    popt.num_cells = 20;
    pp_ = gen::generate_placement(popt, rng);
    grid_ = place::Grid{5, 5, pp_.width, pp_.height};
  }

  gen::RoutingProblem rp_;
  gen::PlacementProblem pp_;
  place::Grid grid_;
};

TEST_F(HostileGraders, RouteGraderSurvivesCorpus) {
  for (const auto& name : corpus()) {
    const auto g = grader::grade_routing_text(rp_, load(name));
    EXPECT_GE(g.score, 0.0) << name;
    EXPECT_LE(g.score, 100.0) << name;
    EXPECT_FALSE(g.report.empty()) << name;
  }
  const auto g = grader::grade_routing_text(rp_, ten_megabyte_line());
  EXPECT_DOUBLE_EQ(g.score, 0.0);
  // Diagnostics excerpt hostile lines; the report must stay readable.
  EXPECT_LT(g.report.size(), 10'000u);
}

TEST_F(HostileGraders, PlaceGraderSurvivesCorpus) {
  for (const auto& name : corpus()) {
    const auto g = grader::grade_placement_text(pp_, grid_, load(name), 1.0);
    EXPECT_DOUBLE_EQ(g.score, 0.0) << name;
    EXPECT_FALSE(g.report.empty()) << name;
    EXPECT_FALSE(g.diagnostics.empty()) << name;
  }
  EXPECT_NO_THROW(
      grader::grade_placement_text(pp_, grid_, ten_megabyte_line(), 1.0));
}

TEST_F(HostileGraders, OutOfRangeIndicesAreDiagnosedNotFatal) {
  // Syntactically valid coordinates light-years outside the grid: the
  // grader must report "out of bounds", not index into p.blocked.
  const auto g = grader::grade_routing_text(rp_, load("out_of_range_route.sol"));
  EXPECT_DOUBLE_EQ(g.score, 0.0);
  EXPECT_NE(g.report.find("missing"), std::string::npos);
}

TEST_F(HostileGraders, PartialCreditSurvivesMalformedBlocks) {
  // One real routed net serialized next to a garbage block: the good net
  // still earns its fraction of the score.
  const auto sol = route::route_all(rp_);
  std::string text = route::write_solution(sol);
  text += "net 9999\n(not a cell\n";  // malformed trailing block
  const auto g = grader::grade_routing_text(rp_, text);
  EXPECT_GT(g.score, 0.0);
  EXPECT_FALSE(g.diagnostics.empty());
  EXPECT_NE(g.report.find("still graded"), std::string::npos);
}

// ---------------------------------------------------------------------------
// 3. Budgets terminate every engine on adversarial input.

TEST(Budgets, SatSolverStopsOnStepBudget) {
  // Pigeonhole php(5, 4): UNSAT, conflict-heavy -- adversarial for a
  // CDCL solver. A one-step propagation budget must stop it almost
  // immediately with INDETERMINATE, not burn to refutation.
  std::string cnf = "p cnf 20 45\n";
  auto v = [](int p, int h) { return p * 4 + h + 1; };
  for (int p = 0; p < 5; ++p) {
    for (int h = 0; h < 4; ++h) cnf += std::to_string(v(p, h)) + " ";
    cnf += "0\n";
  }
  for (int h = 0; h < 4; ++h)
    for (int p1 = 0; p1 < 5; ++p1)
      for (int p2 = p1 + 1; p2 < 5; ++p2)
        cnf += "-" + std::to_string(v(p1, h)) + " -" +
               std::to_string(v(p2, h)) + " 0\n";

  const auto f = sat::parse_dimacs_lenient(cnf);
  const auto budget = util::Budget::with_step_limit(1);
  sat::SolverOptions opt;
  opt.budget = &budget;
  sat::Solver solver(opt);
  ASSERT_TRUE(sat::load_into_solver(f, solver));
  EXPECT_EQ(solver.solve(), sat::LBool::kUndef);
  EXPECT_FALSE(solver.stop_reason().ok());
  EXPECT_EQ(solver.stop_reason().code, util::StatusCode::kBudgetExceeded);

  // Without the guard the same instance refutes fine.
  sat::Solver free_solver;
  ASSERT_TRUE(sat::load_into_solver(f, free_solver));
  EXPECT_EQ(free_solver.solve(), sat::LBool::kFalse);
}

TEST(Budgets, BddManagerUnwindsOnNodeBudget) {
  bdd::Manager mgr(0);
  std::vector<bdd::Bdd> vars;
  for (int i = 0; i < 24; ++i) vars.push_back(mgr.var(mgr.new_var()));

  const auto budget = util::Budget::with_step_limit(8);
  mgr.set_budget(&budget);
  EXPECT_THROW(
      {
        bdd::Bdd f = vars[0];
        for (int i = 1; i < 24; ++i) f = f ^ vars[i];
      },
      util::BudgetExceededError);

  // The manager survives the unwind: lift the guard and keep working.
  mgr.set_budget(nullptr);
  const bdd::Bdd g = vars[0] & vars[1];
  EXPECT_FALSE(g.is_constant());
}

TEST(Budgets, RouterReturnsPartialSolutionOnBudget) {
  util::Rng rng(7);
  gen::RoutingGenOptions gopt;
  gopt.width = gopt.height = 32;
  gopt.num_nets = 24;
  const auto p = gen::generate_routing(gopt, rng);

  const auto budget = util::Budget::with_step_limit(1);
  route::RouterOptions opt;
  opt.budget = &budget;
  const auto sol = route::route_all(p, opt);
  EXPECT_FALSE(sol.status.ok());
  EXPECT_EQ(sol.status.code, util::StatusCode::kBudgetExceeded);
  // Partial result: the solution object is intact and gradeable.
  EXPECT_NO_THROW(grader::grade_routing(p, sol));
}

TEST(Budgets, PlacerStopsOnRegionBudget) {
  util::Rng rng(8);
  gen::PlacementGenOptions gopt;
  gopt.num_cells = 200;
  const auto p = gen::generate_placement(gopt, rng);

  const auto budget = util::Budget::with_step_limit(1);
  place::QuadraticOptions opt;
  opt.budget = &budget;
  place::QuadraticStats stats;
  const auto placement = place::place_quadratic(p, opt, &stats);
  EXPECT_FALSE(stats.status.ok());
  EXPECT_EQ(placement.x.size(), static_cast<std::size_t>(p.num_cells));
}

TEST(Budgets, ConjugateGradientHonorsExpiredDeadline) {
  constexpr int kN = 1000;
  linalg::SparseMatrix a(kN);
  std::vector<double> b(kN, 1.0);
  for (int i = 0; i < kN; ++i) a.add(i, i, 2.0);
  a.compress();

  const auto budget = util::Budget::with_deadline_ms(0);  // already expired
  linalg::CgOptions opt;
  opt.budget = &budget;
  const auto res = linalg::conjugate_gradient(a, b, opt);
  EXPECT_EQ(res.iterations, 0);
  EXPECT_FALSE(res.converged);
}

TEST(Budgets, FlowStopsAtStageBoundaryWithPartialResult) {
  const auto net = gen::adder_network(2);

  const auto tiny = util::Budget::with_step_limit(1);
  flow::FlowOptions opt;
  opt.budget = &tiny;
  const auto res = flow::run_flow(net, opt);
  EXPECT_FALSE(res.status.ok());
  EXPECT_FALSE(res.stopped_stage.empty());

  flow::FlowOptions free_opt;
  const auto full = flow::run_flow(net, free_opt);
  EXPECT_TRUE(full.status.ok()) << full.status.to_string();
  EXPECT_TRUE(full.stopped_stage.empty());
}

TEST(Budgets, CancellationStopsTheRouterFromOutside) {
  util::Rng rng(9);
  gen::RoutingGenOptions gopt;
  gopt.width = gopt.height = 24;
  gopt.num_nets = 12;
  const auto p = gen::generate_routing(gopt, rng);

  util::Budget budget;
  budget.cancel();  // fire before the run: every checkpoint sees it
  route::RouterOptions opt;
  opt.budget = &budget;
  const auto sol = route::route_all(p, opt);
  EXPECT_FALSE(sol.status.ok());
  EXPECT_EQ(sol.status.code, util::StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// 4. The per-submission attempt loop (grade_one_submission) degrades
//    gracefully: poison inputs fail, budgets stop without a retry, and
//    injected faults retry with backoff.

double parse_score(const std::string& s) {
  return static_cast<double>(util::parse_int(s.substr(1)).value());
}

double grade_by_name(const std::string& s, const util::Budget&) {
  if (s == "poison") throw std::runtime_error("unreadable submission");
  return parse_score(s);
}

/// One submission through the attempt loop, fault-keyed by `key`.
mooc::SubmissionOutcome grade_one(const std::string& submission,
                                  const mooc::GradeFn& grade,
                                  const mooc::QueueOptions& opt = {},
                                  std::uint64_t key = 0,
                                  mooc::FaultTally* tally = nullptr) {
  mooc::SubmissionOutcome out;
  mooc::FaultTally local;
  mooc::grade_one_submission(key, submission, grade, opt, out,
                             tally != nullptr ? *tally : local);
  return out;
}

TEST(GradingQueue, CleanQueueGradesEverything) {
  for (int i = 0; i < 8; ++i) {
    const auto out = grade_one("s" + std::to_string(i), grade_by_name);
    EXPECT_EQ(out.kind, mooc::OutcomeKind::kGraded);
    EXPECT_DOUBLE_EQ(out.score, i);
    EXPECT_EQ(out.attempts, 1);
    EXPECT_TRUE(out.status.ok());
  }
}

TEST(GradingQueue, PoisonSubmissionsFailWithDiagnosticsOthersGrade) {
  mooc::QueueOptions opt;
  opt.max_retries = 2;
  const auto good = grade_one("s10", grade_by_name, opt);
  EXPECT_EQ(good.kind, mooc::OutcomeKind::kGraded);
  EXPECT_DOUBLE_EQ(good.score, 10.0);
  const auto poison = grade_one("poison", grade_by_name, opt);
  EXPECT_EQ(poison.kind, mooc::OutcomeKind::kFailed);
  EXPECT_EQ(poison.attempts, 3);  // 1 + 2 retries
  EXPECT_NE(poison.diagnostic.find("unreadable submission"),
            std::string::npos);
}

TEST(GradingQueue, SlowSubmissionsHitTheirBudgetAndAreNotRetried) {
  mooc::QueueOptions opt;
  opt.step_limit = 4;
  opt.max_retries = 3;
  const auto grade = [](const std::string& s, const util::Budget& budget) {
    if (s == "slow") {
      while (budget.consume(1)) {
      }
      return 0.0;  // honored the guard, gave up
    }
    budget.consume(1);
    return parse_score(s);
  };
  EXPECT_EQ(grade_one("s10", grade, opt).kind, mooc::OutcomeKind::kGraded);
  const auto slow = grade_one("slow", grade, opt);
  EXPECT_EQ(slow.kind, mooc::OutcomeKind::kBudget);
  EXPECT_EQ(slow.attempts, 1);  // deterministic: never retried
  EXPECT_FALSE(slow.status.ok());
  // A grader that throws the budget error is not retried either.
  const auto thrown = grade_one(
      "s30",
      [](const std::string&, const util::Budget& budget) -> double {
        budget.consume(100);
        throw util::BudgetExceededError(budget.status());
      },
      opt);
  EXPECT_EQ(thrown.kind, mooc::OutcomeKind::kBudget);
  EXPECT_EQ(thrown.attempts, 1);
}

TEST(GradingQueue, InjectedFaultsAreRetriedWithBackoff) {
  mooc::QueueOptions opt;
  opt.fault_seed = 1234;
  opt.transient_fault_rate = 0.4;
  opt.stall_rate = 0.2;
  opt.max_retries = 4;
  // With 5 attempts at a 60% compound fault rate, nearly everything
  // grades; whatever does not is marked exhausted, never lost.
  int graded = 0, exhausted = 0;
  mooc::FaultTally tally;
  for (int i = 0; i < 40; ++i) {
    const std::string sub = "s" + std::to_string(i % 10);
    const auto out = grade_one(sub, grade_by_name, opt,
                               static_cast<std::uint64_t>(i), &tally);
    if (out.kind == mooc::OutcomeKind::kGraded) {
      ++graded;
      EXPECT_DOUBLE_EQ(out.score, parse_score(sub));
      if (out.attempts > 1) {
        EXPECT_GT(out.backoff_ticks, 0);
      }
    } else {
      ++exhausted;
      EXPECT_EQ(out.kind, mooc::OutcomeKind::kExhausted);
      EXPECT_EQ(out.attempts, 5);
    }
  }
  EXPECT_GT(graded, 30);
  EXPECT_EQ(graded + exhausted, 40);
  EXPECT_GT(tally.transients, 0);
  EXPECT_GT(tally.stalls, 0);
}

TEST(GradingQueue, LastFailedAttemptPicksFailedOrExhausted) {
  // Two attempts, both failing, in either order: the last one decides.
  // A throw followed by an injected fault is kExhausted; an injected
  // fault followed by a throw is kFailed. Fault draws are keyed, so scan
  // keys until both orders have been seen.
  mooc::QueueOptions opt;
  opt.fault_seed = 7;
  opt.transient_fault_rate = 0.5;
  opt.max_retries = 1;
  bool saw_throw_then_fault = false, saw_fault_then_throw = false;
  for (std::uint64_t key = 0; key < 256; ++key) {
    mooc::FaultTally tally;
    bool fault_before_throw = false;
    int throws = 0;
    const auto out = grade_one(
        "poison",
        [&](const std::string&, const util::Budget&) -> double {
          ++throws;
          fault_before_throw = tally.transients > 0;
          throw std::runtime_error("unreadable submission");
        },
        opt, key, &tally);
    if (throws != 1 || tally.transients != 1) continue;
    if (fault_before_throw) {
      saw_fault_then_throw = true;
      EXPECT_EQ(out.kind, mooc::OutcomeKind::kFailed) << "key " << key;
    } else {
      saw_throw_then_fault = true;
      EXPECT_EQ(out.kind, mooc::OutcomeKind::kExhausted) << "key " << key;
    }
  }
  EXPECT_TRUE(saw_throw_then_fault);
  EXPECT_TRUE(saw_fault_then_throw);
}

TEST(GradingQueue, BackoffSaturatesAtMaxRetries64) {
  // Regression: backoff_base_ticks << (attempt - 1) shifted past the
  // width of int (UB) once retries ran deep. The shift is now clamped
  // and the accumulated total saturates, so a 64-retry poison submission
  // is well-defined and finishes with the counter pinned at INT_MAX.
  mooc::QueueOptions opt;
  opt.max_retries = 64;
  opt.backoff_base_ticks = 3;
  const auto out = grade_one(
      "poison",
      [](const std::string&, const util::Budget&) -> double {
        throw std::runtime_error("always fails");
      },
      opt);
  EXPECT_EQ(out.kind, mooc::OutcomeKind::kFailed);
  EXPECT_EQ(out.attempts, 65);  // 1 + 64 retries
  EXPECT_EQ(out.backoff_ticks, std::numeric_limits<int>::max());
}

// ---------------------------------------------------------------------------
// 5. The persistent grading service survives overload deterministically:
//    admission rejects are recorded, sheds are recorded, breakers degrade
//    instead of failing -- and every run is bit-identical at any
//    L2L_THREADS value, which these tests check by fingerprinting whole
//    runs at 1/2/8 threads.

/// Hand-built trace: one course, one body string per event so dedup
/// cannot blur per-event assertions.
mooc::SubmissionTrace service_trace(
    std::uint32_t ticks,
    const std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint8_t>>&
        events /* (arrival, deadline, lane) in arrival order */) {
  mooc::SubmissionTrace trace;
  trace.ticks = ticks;
  trace.num_courses = 1;
  for (std::size_t i = 0; i < events.size(); ++i) {
    trace.bodies.push_back("s" + std::to_string(10 * (i + 1)));
    mooc::SubmissionEvent ev;
    ev.body = static_cast<std::uint32_t>(i);
    ev.arrival_tick = std::get<0>(events[i]);
    ev.deadline_tick = std::get<1>(events[i]);
    ev.lane = std::get<2>(events[i]);
    trace.events.push_back(ev);
  }
  return trace;
}

double service_grade(const std::string& s, const util::Budget&) {
  return parse_score(s);
}

/// Everything deterministic about a run, flattened for equality checks
/// across thread counts.
std::string service_fingerprint(const mooc::ServiceResult& r) {
  std::ostringstream ss;
  const auto& s = r.stats;
  ss << s.ticks << '/' << s.arrivals << '/' << s.admitted << '/'
     << s.rejected_quota << '/' << s.rejected_full << '/' << s.shed << '/'
     << s.graded << '/' << s.degraded << '/' << s.failed << '/'
     << s.budget_exceeded << '/' << s.retries_exhausted << '/'
     << s.lint_rejected << '/' << s.dedup_hits << '/' << s.cache_hits << '/'
     << s.breaker_trips << '/' << s.breaker_probes << '/'
     << s.breaker_recoveries << '/' << s.total_attempts << '/'
     << s.injected_transients << '/' << s.injected_stalls << '/'
     << s.peak_depth_first << '/' << s.peak_depth_resubmit << '\n';
  for (const auto& o : r.outcomes)
    ss << static_cast<int>(o.disposition) << ':' << static_cast<int>(o.lane)
       << ':' << o.replayed << ':' << o.attempts << ':'
       << static_cast<int>(o.status) << ':' << o.final_tick << ':'
       << o.backoff_ticks << ':' << o.score << ':' << o.diagnostic.size()
       << ';';
  return ss.str();
}

/// Run the scenario at 1, 2, and 8 threads; assert the runs are
/// bit-identical and hand back the (shared) result.
mooc::ServiceResult run_thread_invariant(const mooc::ServiceOptions& opt,
                                         const mooc::SubmissionTrace& trace,
                                         mooc::GradeFn grade = service_grade) {
  const mooc::GradingService service(opt, std::move(grade));
  mooc::ServiceResult first;
  std::string first_print;
  for (const int t : {1, 2, 8}) {
    util::set_num_threads(t);
    auto res = service.run(trace);
    EXPECT_TRUE(res.accounting_ok())
        << "silent drop at " << t << " threads: admitted " << res.stats.admitted
        << " + rejected " << res.stats.rejected() << " + shed "
        << res.stats.shed << " != arrivals " << res.stats.arrivals;
    const auto print = service_fingerprint(res);
    if (first_print.empty()) {
      first = std::move(res);
      first_print = print;
    } else {
      EXPECT_EQ(print, first_print) << "run differs at " << t << " threads";
    }
  }
  util::set_num_threads(0);
  return first;
}

TEST(GradingService, AdmissionRejectsBeyondQuota) {
  // Ten arrivals in one tick against a quota of four: four serviced, six
  // rejected with a recorded reason -- in submission-id order, because
  // the arrival sweep is sequential.
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint8_t>> events;
  for (int i = 0; i < 10; ++i) events.emplace_back(0, 2, 0);
  const auto trace = service_trace(3, events);
  mooc::ServiceOptions opt;
  opt.admit_quota = 4;
  opt.queue_cap = 100;
  opt.service_rate = 100;
  const auto res = run_thread_invariant(opt, trace);
  EXPECT_EQ(res.stats.arrivals, 10);
  EXPECT_EQ(res.stats.admitted, 4);
  EXPECT_EQ(res.stats.rejected_quota, 6);
  EXPECT_EQ(res.stats.shed, 0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(res.outcomes[static_cast<std::size_t>(i)].disposition,
              mooc::Disposition::kGraded);
    EXPECT_DOUBLE_EQ(res.outcomes[static_cast<std::size_t>(i)].score,
                     10.0 * (i + 1));
  }
  for (int i = 4; i < 10; ++i) {
    const auto& o = res.outcomes[static_cast<std::size_t>(i)];
    EXPECT_EQ(o.disposition, mooc::Disposition::kRejectedQuota);
    EXPECT_EQ(o.final_tick, 0u);
    EXPECT_TRUE(o.diagnostic.empty());
  }
}

TEST(GradingService, OverloadShedsResubmitLaneByPolicy) {
  // One first submit plus three resubmits into a queue of two. The shed
  // policy picks the victim from the resubmit lane: oldest deadline
  // first, or the newest arrival, or -- under `none` -- nobody (the
  // queue rejects at admission instead). Every variant keeps the books.
  const auto trace = service_trace(8, {{0, 5, 0},    // e0: first submit
                                       {0, 3, 1},    // e1: resubmit, d=3
                                       {0, 7, 1},    // e2: resubmit, d=7
                                       {0, 2, 1}});  // e3: resubmit, d=2
  mooc::ServiceOptions opt;
  opt.queue_cap = 2;
  opt.admit_quota = 100;
  opt.service_rate = 1;

  opt.shed_policy = mooc::ShedPolicy::kOldestDeadline;
  auto res = run_thread_invariant(opt, trace);
  EXPECT_EQ(res.stats.shed, 2);
  EXPECT_EQ(res.stats.admitted, 2);
  // e1 (deadline 3) evicted when e2 arrives; e3 (deadline 2) evicts
  // itself on arrival. The first-submit lane is never touched.
  EXPECT_EQ(res.outcomes[0].disposition, mooc::Disposition::kGraded);
  EXPECT_EQ(res.outcomes[1].disposition, mooc::Disposition::kShed);
  EXPECT_EQ(res.outcomes[2].disposition, mooc::Disposition::kGraded);
  EXPECT_EQ(res.outcomes[3].disposition, mooc::Disposition::kShed);
  // Priority lanes: the first submit is serviced before the resubmit.
  EXPECT_LT(res.outcomes[0].final_tick, res.outcomes[2].final_tick);

  opt.shed_policy = mooc::ShedPolicy::kNewestFirst;
  res = run_thread_invariant(opt, trace);
  EXPECT_EQ(res.stats.shed, 2);
  // Newest arrivals (e2, then e3) leave first; e1 survives.
  EXPECT_EQ(res.outcomes[1].disposition, mooc::Disposition::kGraded);
  EXPECT_EQ(res.outcomes[2].disposition, mooc::Disposition::kShed);
  EXPECT_EQ(res.outcomes[3].disposition, mooc::Disposition::kShed);

  opt.shed_policy = mooc::ShedPolicy::kNone;
  res = run_thread_invariant(opt, trace);
  EXPECT_EQ(res.stats.shed, 0);
  EXPECT_EQ(res.stats.rejected_full, 2);
  EXPECT_EQ(res.outcomes[2].disposition, mooc::Disposition::kRejectedFull);
  EXPECT_EQ(res.outcomes[3].disposition, mooc::Disposition::kRejectedFull);
}

TEST(GradingService, BreakerTripsDegradesThenRecovers) {
  // One submission per tick into a fault storm covering ticks [0, 12).
  // With every attempt faulting, two consecutive exhausted outcomes trip
  // the breaker; the course degrades to lint-only service while open;
  // half-open probes fail on the deterministic schedule until the storm
  // passes, then the first clean probe closes the breaker again.
  std::vector<std::tuple<std::uint32_t, std::uint32_t, std::uint8_t>> events;
  for (std::uint32_t i = 0; i < 30; ++i) events.emplace_back(i, i + 5, 0);
  const auto trace = service_trace(40, events);
  mooc::ServiceOptions opt;
  opt.service_rate = 1;
  opt.admit_quota = 10;
  opt.queue_cap = 100;
  opt.breaker_threshold = 2;
  opt.breaker_probe_interval = 2;
  opt.storm_begin_tick = 0;
  opt.storm_end_tick = 12;
  opt.storm_transient_rate = 1.0;
  opt.queue.max_retries = 1;
  const auto res = run_thread_invariant(opt, trace);

  EXPECT_EQ(res.stats.breaker_trips, 1);
  EXPECT_EQ(res.stats.breaker_recoveries, 1);
  // Probes fire on ticks 3, 5, 7, 9, 11 (failing -- storm) and 13 (clean).
  EXPECT_EQ(res.stats.breaker_probes, 6);
  // Exhausted: the two that tripped it plus the five failed probes.
  EXPECT_EQ(res.stats.retries_exhausted, 7);
  // Degraded: the non-probe ticks while open during/just after the storm.
  EXPECT_EQ(res.stats.degraded, 6);
  EXPECT_EQ(res.stats.graded, 17);
  EXPECT_EQ(res.stats.admitted, 30);

  EXPECT_EQ(res.outcomes[0].disposition, mooc::Disposition::kExhausted);
  EXPECT_EQ(res.outcomes[1].disposition, mooc::Disposition::kExhausted);
  EXPECT_EQ(res.outcomes[2].disposition, mooc::Disposition::kDegraded);
  EXPECT_EQ(res.outcomes[3].disposition, mooc::Disposition::kExhausted);
  EXPECT_EQ(res.outcomes[13].disposition, mooc::Disposition::kGraded);
  EXPECT_EQ(res.outcomes[29].disposition, mooc::Disposition::kGraded);
}

TEST(GradingService, GeneratedSemesterUnderOverloadNeverDropsSilently) {
  // The acceptance drill in miniature: a generated deadline-spiked trace
  // against a queue cap far below the arrival rate. Whatever the mix of
  // graded/rejected/shed, the books must close exactly -- at any thread
  // count (run_thread_invariant checks both).
  mooc::TraceOptions topt;
  topt.num_students = 4000;
  topt.num_courses = 3;
  topt.ticks = 100;
  util::Rng rng(11);
  const auto trace = mooc::generate_submission_trace(topt, rng);
  mooc::ServiceOptions opt;
  opt.queue_cap = 32;
  opt.admit_quota = 24;
  opt.service_rate = 4;
  opt.storm_begin_tick = 30;
  opt.storm_end_tick = 60;
  opt.storm_transient_rate = 0.9;
  opt.storm_stall_rate = 0.4;
  const auto res = run_thread_invariant(
      opt, trace, [](const std::string& s, const util::Budget&) {
        return static_cast<double>(s.size() % 101);
      });
  EXPECT_GT(res.stats.shed, 0);
  EXPECT_GT(res.stats.rejected_quota, 0);
  EXPECT_GT(res.stats.graded, 0);
  EXPECT_EQ(res.stats.arrivals,
            static_cast<std::int64_t>(trace.events.size()));
}

TEST(GradingQueue, RealGraderBehindTheQueueSurvivesHostileCorpus) {
  // The real route grader behind the grading service, fed every hostile
  // file plus one good solution, one upload per tick: graders never
  // throw, so every hostile file still "grades" (score 0 or partial) and
  // the good one scores full marks -- identically at 1, 2, and 8 threads.
  util::Rng rng(42);
  gen::RoutingGenOptions ropt;
  ropt.width = ropt.height = 16;
  ropt.num_nets = 6;
  const auto p = gen::generate_routing(ropt, rng);

  mooc::SubmissionTrace trace;
  trace.num_courses = 1;
  for (const auto& name : corpus()) trace.bodies.push_back(load(name));
  trace.bodies.push_back(route::write_solution(route::route_all(p)));
  for (std::uint32_t b = 0; b < trace.bodies.size(); ++b) {
    mooc::SubmissionEvent ev;
    ev.body = b;
    ev.arrival_tick = b;
    ev.deadline_tick = b + 1;
    trace.events.push_back(ev);
  }
  trace.ticks = static_cast<std::uint32_t>(trace.events.size()) + 1;

  const auto res = run_thread_invariant(
      mooc::ServiceOptions{}, trace,
      [&](const std::string& text, const util::Budget& budget) {
        return grader::grade_routing_text(p, text, &budget).score;
      });
  ASSERT_EQ(res.outcomes.size(), trace.bodies.size());
  for (const auto& out : res.outcomes)
    EXPECT_EQ(out.disposition, mooc::Disposition::kGraded);
  EXPECT_DOUBLE_EQ(res.outcomes.back().score, 100.0);
  EXPECT_LT(res.outcomes.front().score, 100.0);
}

TEST_F(HostileGraders, BatchGradingIsolatesEverySubmission) {
  // Every hostile file plus one good solution uploaded in the same tick,
  // so the service grades them as one parallel batch: each submission
  // gets its own outcome, equal to what the route grader gives that file
  // alone, and the good one scores full marks.
  mooc::SubmissionTrace trace;
  trace.num_courses = 1;
  for (const auto& name : corpus()) trace.bodies.push_back(load(name));
  trace.bodies.push_back(route::write_solution(route::route_all(rp_)));
  for (std::uint32_t b = 0; b < trace.bodies.size(); ++b) {
    mooc::SubmissionEvent ev;
    ev.body = b;
    ev.deadline_tick = 1;
    trace.events.push_back(ev);
  }
  trace.ticks = 2;

  const auto res = run_thread_invariant(
      mooc::ServiceOptions{}, trace,
      [&](const std::string& text, const util::Budget& budget) {
        return grader::grade_routing_text(rp_, text, &budget).score;
      });
  ASSERT_EQ(res.outcomes.size(), trace.bodies.size());
  for (std::size_t i = 0; i < trace.bodies.size(); ++i) {
    EXPECT_EQ(res.outcomes[i].disposition, mooc::Disposition::kGraded) << i;
    EXPECT_EQ(res.outcomes[i].final_tick, 0u) << i;
    EXPECT_DOUBLE_EQ(res.outcomes[i].score,
                     grader::grade_routing_text(rp_, trace.bodies[i]).score)
        << i;
  }
  EXPECT_DOUBLE_EQ(res.outcomes.back().score, 100.0);
}

}  // namespace
}  // namespace l2l
