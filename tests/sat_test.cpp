#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <numeric>
#include <string>
#include <vector>

#include "api/sat.hpp"
#include "cache/digest.hpp"
#include "sat/dimacs.hpp"
#include "sat/solver.hpp"
#include "tt/truth_table.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace l2l::sat {
namespace {

// Brute-force SAT check of a clause list (oracle for property tests).
bool brute_force_sat(int num_vars, const std::vector<std::vector<Lit>>& cls) {
  for (std::uint64_t m = 0; m < (1ull << num_vars); ++m) {
    bool all = true;
    for (const auto& c : cls) {
      bool any = false;
      for (const Lit p : c) {
        const bool v = (m >> p.var()) & 1;
        if (v != p.sign()) {
          any = true;
          break;
        }
      }
      if (!any) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

// Pigeonhole principle CNF: n+1 pigeons into n holes -- classically UNSAT
// and exponential for resolution; small n keeps it fast.
void add_pigeonhole(Solver& s, int holes) {
  const int pigeons = holes + 1;
  // var(p, h) = p * holes + h
  s.reserve_vars(pigeons * holes);
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> at_least;
    for (int h = 0; h < holes; ++h) at_least.push_back(mk_lit(p * holes + h));
    s.add_clause(at_least);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        s.add_clause({~mk_lit(p1 * holes + h), ~mk_lit(p2 * holes + h)});
}

TEST(Lit, EncodingRoundTrip) {
  const Lit p = mk_lit(5, true);
  EXPECT_EQ(p.var(), 5);
  EXPECT_TRUE(p.sign());
  EXPECT_EQ((~p).var(), 5);
  EXPECT_FALSE((~p).sign());
  EXPECT_EQ(~~p, p);
}

TEST(Luby, FirstTerms) {
  const std::vector<std::int64_t> expect{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8};
  for (std::size_t i = 0; i < expect.size(); ++i)
    EXPECT_EQ(luby(static_cast<std::int64_t>(i)), expect[i]) << i;
}

TEST(Solver, TrivialSat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause({mk_lit(a)});
  EXPECT_EQ(s.solve(), LBool::kTrue);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_satisfies_formula());
}

TEST(Solver, TrivialUnsat) {
  Solver s;
  const Var a = s.new_var();
  s.add_clause({mk_lit(a)});
  EXPECT_FALSE(s.add_clause({~mk_lit(a)}));
  EXPECT_EQ(s.solve(), LBool::kFalse);
}

TEST(Solver, EmptyFormulaIsSat) {
  Solver s;
  s.new_var();
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(Solver, TautologyClausesIgnored) {
  Solver s;
  const Var a = s.new_var();
  EXPECT_TRUE(s.add_clause({mk_lit(a), ~mk_lit(a)}));
  EXPECT_EQ(s.num_clauses(), 0);
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(Solver, DuplicateLiteralsDeduped) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({mk_lit(a), mk_lit(a), mk_lit(b)});
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(Solver, UnitPropagationChain) {
  // a, a->b, b->c, c->d: all forced true without decisions.
  Solver s;
  s.reserve_vars(4);
  s.add_clause({mk_lit(0)});
  s.add_clause({~mk_lit(0), mk_lit(1)});
  s.add_clause({~mk_lit(1), mk_lit(2)});
  s.add_clause({~mk_lit(2), mk_lit(3)});
  EXPECT_EQ(s.solve(), LBool::kTrue);
  for (Var v = 0; v < 4; ++v) EXPECT_TRUE(s.model_value(v));
  EXPECT_EQ(s.stats().decisions, 0);
}

TEST(Solver, XorChainSat) {
  // (a xor b xor c) = 1 encoded as CNF; satisfiable with odd parity.
  Solver s;
  s.reserve_vars(3);
  s.add_clause({mk_lit(0), mk_lit(1), mk_lit(2)});
  s.add_clause({mk_lit(0), ~mk_lit(1), ~mk_lit(2)});
  s.add_clause({~mk_lit(0), mk_lit(1), ~mk_lit(2)});
  s.add_clause({~mk_lit(0), ~mk_lit(1), mk_lit(2)});
  ASSERT_EQ(s.solve(), LBool::kTrue);
  EXPECT_TRUE(s.model_value(0) ^ s.model_value(1) ^ s.model_value(2));
}

TEST(Solver, PigeonholeUnsat) {
  for (int holes = 2; holes <= 5; ++holes) {
    Solver s;
    add_pigeonhole(s, holes);
    EXPECT_EQ(s.solve(), LBool::kFalse) << "holes=" << holes;
    EXPECT_GT(s.stats().conflicts, 0);
  }
}

TEST(Solver, PigeonholeSatWhenEqual) {
  // n pigeons, n holes is satisfiable: drop the extra pigeon's clauses.
  Solver s;
  const int n = 4;
  s.reserve_vars(n * n);
  for (int p = 0; p < n; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < n; ++h) c.push_back(mk_lit(p * n + h));
    s.add_clause(c);
  }
  for (int h = 0; h < n; ++h)
    for (int p1 = 0; p1 < n; ++p1)
      for (int p2 = p1 + 1; p2 < n; ++p2)
        s.add_clause({~mk_lit(p1 * n + h), ~mk_lit(p2 * n + h)});
  EXPECT_EQ(s.solve(), LBool::kTrue);
  EXPECT_TRUE(s.model_satisfies_formula());
}

TEST(Solver, RandomFormulasMatchBruteForce) {
  util::Rng rng(41);
  int sat_count = 0, unsat_count = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int nv = 4 + static_cast<int>(rng.next_below(5));     // 4..8 vars
    const int nc = static_cast<int>(rng.next_below(40)) + nv;  // near threshold
    std::vector<std::vector<Lit>> cls;
    for (int i = 0; i < nc; ++i) {
      std::vector<Lit> c;
      for (int k = 0; k < 3; ++k)
        c.push_back(Lit(static_cast<Var>(rng.next_below(static_cast<std::uint64_t>(nv))),
                        rng.next_bool()));
      cls.push_back(c);
    }
    Solver s;
    s.reserve_vars(nv);
    bool ok = true;
    for (const auto& c : cls) ok = s.add_clause(c) && ok;
    const bool expect = brute_force_sat(nv, cls);
    const LBool got = ok ? s.solve() : LBool::kFalse;
    EXPECT_EQ(got == LBool::kTrue, expect) << "trial " << trial;
    if (got == LBool::kTrue) {
      EXPECT_TRUE(s.model_satisfies_formula());
      ++sat_count;
    } else {
      ++unsat_count;
    }
  }
  EXPECT_GT(sat_count, 10);
  EXPECT_GT(unsat_count, 10);
}

TEST(Solver, AblationsStillCorrect) {
  // VSIDS off / restarts off must not change answers, only performance.
  for (const bool vsids : {false, true}) {
    for (const bool restarts : {false, true}) {
      SolverOptions opt;
      opt.use_vsids = vsids;
      opt.use_restarts = restarts;
      Solver s(opt);
      add_pigeonhole(s, 4);
      EXPECT_EQ(s.solve(), LBool::kFalse);
    }
  }
}

TEST(Solver, ConflictLimitReturnsUndef) {
  SolverOptions opt;
  opt.conflict_limit = 1;
  Solver s(opt);
  add_pigeonhole(s, 5);
  EXPECT_EQ(s.solve(), LBool::kUndef);
}

TEST(Solver, IncrementalSolveWithAssumptions) {
  Solver s;
  const Var a = s.new_var();
  const Var b = s.new_var();
  s.add_clause({mk_lit(a), mk_lit(b)});
  EXPECT_EQ(s.solve({~mk_lit(a)}), LBool::kTrue);
  EXPECT_TRUE(s.model_value(b));
  EXPECT_EQ(s.solve({~mk_lit(a), ~mk_lit(b)}), LBool::kFalse);
  // Solver still usable: without assumptions it is satisfiable.
  EXPECT_EQ(s.solve(), LBool::kTrue);
}

TEST(Solver, IncrementalAddClauseBetweenSolves) {
  Solver s;
  s.reserve_vars(2);
  s.add_clause({mk_lit(0), mk_lit(1)});
  EXPECT_EQ(s.solve(), LBool::kTrue);
  s.add_clause({~mk_lit(0)});
  s.add_clause({~mk_lit(1)});
  EXPECT_EQ(s.solve(), LBool::kFalse);
}

TEST(Solver, AddClauseValidatesVariables) {
  Solver s;
  s.new_var();
  EXPECT_THROW(s.add_clause({mk_lit(3)}), std::invalid_argument);
}

TEST(Solver, LearnsClausesOnHardInstance) {
  Solver s;
  add_pigeonhole(s, 5);
  s.solve();
  EXPECT_GT(s.stats().learnt_clauses, 0);
  EXPECT_GT(s.stats().propagations, 0);
}

TEST(Dimacs, ParseBasic) {
  const auto f = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n");
  EXPECT_EQ(f.num_vars, 3);
  ASSERT_EQ(f.clauses.size(), 2u);
  EXPECT_EQ(f.clauses[0][0], mk_lit(0, false));
  EXPECT_EQ(f.clauses[0][1], mk_lit(1, true));
}

TEST(Dimacs, ParseMultiLineClause) {
  const auto f = parse_dimacs("p cnf 2 1\n1\n-2\n0\n");
  ASSERT_EQ(f.clauses.size(), 1u);
  EXPECT_EQ(f.clauses[0].size(), 2u);
}

TEST(Dimacs, ParseErrors) {
  EXPECT_THROW(parse_dimacs("1 2 0\n"), std::invalid_argument);
  EXPECT_THROW(parse_dimacs("p cnf 1 1\n2 0\n"), std::invalid_argument);
  EXPECT_THROW(parse_dimacs("p cnf 2 1\n1 2\n"), std::invalid_argument);
  EXPECT_THROW(parse_dimacs("p cnf 2 5\n1 0\n"), std::invalid_argument);
}

TEST(Dimacs, WriteParseRoundTrip) {
  CnfFormula f;
  f.num_vars = 3;
  f.clauses = {{mk_lit(0), ~mk_lit(2)}, {mk_lit(1)}};
  const auto g = parse_dimacs(write_dimacs(f));
  EXPECT_EQ(g.num_vars, f.num_vars);
  EXPECT_EQ(g.clauses, f.clauses);
}

TEST(Dimacs, EndToEndSolve) {
  const auto f = parse_dimacs_lenient("p cnf 2 2\n1 2 0\n-1 2 0\n");
  Solver s;
  ASSERT_TRUE(load_into_solver(f, s));
  const auto r = s.solve();
  EXPECT_EQ(r, LBool::kTrue);
  const auto text = result_text(s, r);
  EXPECT_NE(text.find("SATISFIABLE"), std::string::npos);
  EXPECT_NE(text.find(" 2 "), std::string::npos);  // var 2 must be true
}

// Parameterized sweep: random instances at several clause/var ratios keep
// solver agreement with brute force (the classic phase-transition sweep).
class RatioTest : public ::testing::TestWithParam<double> {};

TEST_P(RatioTest, AgreesWithBruteForce) {
  const double ratio = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(ratio * 1000));
  for (int trial = 0; trial < 30; ++trial) {
    const int nv = 6;
    const int nc = static_cast<int>(ratio * nv);
    std::vector<std::vector<Lit>> cls;
    for (int i = 0; i < nc; ++i) {
      std::vector<Lit> c;
      while (c.size() < 3) {
        const Lit p(static_cast<Var>(rng.next_below(nv)), rng.next_bool());
        bool dup = false;
        for (const Lit q : c) dup |= q.var() == p.var();
        if (!dup) c.push_back(p);
      }
      cls.push_back(c);
    }
    Solver s;
    s.reserve_vars(nv);
    bool ok = true;
    for (const auto& c : cls) ok = s.add_clause(c) && ok;
    const LBool got = ok ? s.solve() : LBool::kFalse;
    EXPECT_EQ(got == LBool::kTrue, brute_force_sat(nv, cls));
  }
}

INSTANTIATE_TEST_SUITE_P(ClauseVarRatios, RatioTest,
                         ::testing::Values(1.0, 2.0, 3.0, 4.3, 6.0, 8.0));

// ---- byte pin of api::solve_sat and incremental solve -------------------

// Compares `got` with tests/data/golden/`name`; with L2L_UPDATE_GOLDEN
// set, rewrites the file instead and skips the test.
void expect_golden(const std::string& name, const std::string& got) {
  const std::string golden_path = L2L_TEST_DATA_DIR "/golden/" + name;
  if (std::getenv("L2L_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << got;
    GTEST_SKIP() << "golden file regenerated";
  }
  std::ifstream in(golden_path);
  const std::string want((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_FALSE(want.empty()) << "missing golden file " << golden_path;
  EXPECT_EQ(got, want) << "actual:\n" << got;
}

// DIMACS text of `clauses` (1-based signed literals), clause order and
// literal order shuffled as a learner's file would have them.
std::string dimacs_text(int num_vars, std::vector<std::vector<int>> clauses,
                        util::Rng& rng) {
  for (auto& cl : clauses) rng.shuffle(cl);
  rng.shuffle(clauses);
  std::string out = util::format("p cnf %d %d\n", num_vars,
                                 static_cast<int>(clauses.size()));
  for (const auto& cl : clauses) {
    for (const int lit : cl) out += std::to_string(lit) + " ";
    out += "0\n";
  }
  return out;
}

// Random 3-SAT over `num_vars` variables at the given clause ratio; with
// `planted`, only clauses a hidden assignment satisfies are kept.
std::string random_3sat(int num_vars, double ratio, bool planted,
                        util::Rng& rng) {
  std::vector<bool> hidden(static_cast<std::size_t>(num_vars) + 1);
  for (int v = 1; v <= num_vars; ++v)
    hidden[static_cast<std::size_t>(v)] = rng.next_bool();
  const auto want = static_cast<std::size_t>(ratio * num_vars);
  std::vector<std::vector<int>> clauses;
  while (clauses.size() < want) {
    std::vector<int> cl;
    bool satisfied = false;
    while (cl.size() < 3) {
      const int v = 1 + static_cast<int>(rng.next_below(
                            static_cast<std::uint64_t>(num_vars)));
      if (std::find(cl.begin(), cl.end(), v) != cl.end() ||
          std::find(cl.begin(), cl.end(), -v) != cl.end())
        continue;
      const bool positive = rng.next_bool();
      satisfied |= positive == hidden[static_cast<std::size_t>(v)];
      cl.push_back(positive ? v : -v);
    }
    if (satisfied || !planted) clauses.push_back(std::move(cl));
  }
  return dimacs_text(num_vars, std::move(clauses), rng);
}

// PHP(holes + 1, holes) under a random variable relabelling.
std::string relabelled_php(int holes, util::Rng& rng) {
  const int pigeons = holes + 1;
  const int num_vars = pigeons * holes;
  std::vector<int> label(static_cast<std::size_t>(num_vars));
  std::iota(label.begin(), label.end(), 1);
  rng.shuffle(label);
  auto x = [&](int p, int h) {
    return label[static_cast<std::size_t>(p * holes + h)];
  };
  std::vector<std::vector<int>> clauses;
  for (int p = 0; p < pigeons; ++p) {
    std::vector<int> cl;
    for (int h = 0; h < holes; ++h) cl.push_back(x(p, h));
    clauses.push_back(std::move(cl));
  }
  for (int h = 0; h < holes; ++h)
    for (int p = 0; p < pigeons; ++p)
      for (int q = p + 1; q < pigeons; ++q)
        clauses.push_back({-x(p, h), -x(q, h)});
  return dimacs_text(num_vars, std::move(clauses), rng);
}

std::string solve_text(const std::string& dimacs, api::SatRequest req = {}) {
  req.dimacs = dimacs;
  req.show_stats = true;
  req.use_cache = false;
  const auto res = api::solve_sat(req);
  return res.output + util::format("exit %d status %s\n", res.exit_code,
                                   res.status.to_string().c_str());
}

std::string model_text(const Solver& s, LBool r) {
  std::string out = util::format("r%d", static_cast<int>(r));
  if (r == LBool::kTrue)
    for (Var v = 0; v < s.num_vars(); ++v) out += s.model_value(v) ? '1' : '0';
  const auto& st = s.stats();
  return out + util::format(
                   " d%lld p%lld c%lld r%lld l%lld/%lld db%lld ac%lld\n",
                   static_cast<long long>(st.decisions),
                   static_cast<long long>(st.propagations),
                   static_cast<long long>(st.conflicts),
                   static_cast<long long>(st.restarts),
                   static_cast<long long>(st.learnt_clauses),
                   static_cast<long long>(st.learnt_literals),
                   static_cast<long long>(st.db_reductions),
                   static_cast<long long>(st.arena_compactions));
}

TEST(SatGolden, SolveSatMatchesGolden) {
  struct Stream {
    const char* name;
    std::uint64_t seed;
    int cases;
    std::function<std::string(int, util::Rng&)> run;
  };
  const std::vector<Stream> streams = {
      // The graded Week 4 shapes: planted 3-SAT at ratio 4 over 50-80
      // variables, and relabelled PHP(5,4) / PHP(6,5).
      {"planted", 401, 60,
       [](int, util::Rng& rng) {
         const int n = 50 + static_cast<int>(rng.next_below(31));
         return solve_text(random_3sat(n, 4.0, true, rng));
       }},
      {"php", 402, 16,
       [](int t, util::Rng& rng) {
         return solve_text(relabelled_php(4 + t % 2, rng));
       }},
      // Unplanted 3-SAT across the phase transition.
      {"random", 403, 48,
       [](int t, util::Rng& rng) {
         const int n = 40 + static_cast<int>(rng.next_below(21));
         return solve_text(random_3sat(n, 3.0 + t % 4, false, rng));
       }},
      // Deterministic stops and heuristic ablations.
      {"limits", 404, 32,
       [](int t, util::Rng& rng) {
         api::SatRequest req;
         if (t % 2 == 0)
           req.prop_limit = std::int64_t{1} << (3 * (t % 8) / 2);
         else
           req.options.conflict_limit = (t % 8) * (t % 8);
         req.options.use_vsids = t % 5 != 0;
         req.options.use_restarts = t % 7 != 0;
         return solve_text(t % 3 == 0 ? relabelled_php(5, rng)
                                      : random_3sat(60, 4.3, false, rng),
                           req);
       }},
      // Degenerate clauses the loader filters, and unparsable text.
      {"edge", 405, 1,
       [](int, util::Rng&) {
         std::string out;
         for (const char* text :
              {"p cnf 0 0\n", "p cnf 3 0\n", "p cnf 2 1\n0\n",
               "p cnf 3 2\n1 -1 2 0\n-2 3 3 -2 0\n",
               "p cnf 3 4\n1 0\n-1 2 0\n-2 3 0\n-3 0\n",
               "p cnf 4 3\n1 2 0\n-1 0\n2 2 2 0\n",
               "p cnf 3 3\n1\n2\n0 -1 -2\n0\n3 0\n",
               "p cnf 2 1\n1 3 0\n", "1 2 0\n", "p cnf 2 2\n1 0\n",
               "p cnf 2 1\n1 x 0\n"})
           out += solve_text(text);
         return out;
       }},
      // Incremental use: solve under assumptions, add clauses between
      // solves, solve again.
      {"assumptions", 406, 12,
       [](int, util::Rng& rng) {
         const int n = 30 + static_cast<int>(rng.next_below(11));
         const auto parsed =
             parse_dimacs_lenient(random_3sat(n, 3.6, false, rng));
         Solver s;
         s.reserve_vars(n);
         for (const auto& cl : parsed.clauses) {
           std::vector<Lit> lits;
           for (const int v : parsed.lits_of(cl))
             lits.push_back(Lit(std::abs(v) - 1, v < 0));
           s.add_clause(lits);
         }
         auto random_lit = [&] {
           const auto v = static_cast<Var>(
               rng.next_below(static_cast<std::uint64_t>(n)));
           return Lit(v, rng.next_bool());
         };
         std::string out;
         for (int q = 0; q < 10; ++q) {
           std::vector<Lit> assumptions;
           for (int a = 1 + static_cast<int>(rng.next_below(4)); a > 0; --a)
             assumptions.push_back(random_lit());
           out += model_text(s, s.solve(assumptions));
           if (q % 3 == 2) {
             std::vector<Lit> learnt;
             for (int a = 1 + static_cast<int>(rng.next_below(3)); a > 0; --a)
               learnt.push_back(random_lit());
             out += s.add_clause(learnt) ? "+\n" : "-\n";
           }
         }
         return out + model_text(s, s.solve());
       }},
  };
  std::string got;
  for (const auto& s : streams) {
    util::Rng rng(s.seed);
    std::string bytes;
    for (int t = 0; t < s.cases; ++t) bytes += s.run(t, rng);
    got += util::format("%s cases=%d bytes=%zu %s\n", s.name, s.cases,
                        bytes.size(), cache::digest_bytes(bytes).hex().c_str());
  }
  expect_golden("sat_digests.txt", got);
}

}  // namespace
}  // namespace l2l::sat
