// SAT solver microbenchmarks + heuristic ablations: VSIDS and restarts on
// pigeonhole (UNSAT, learning-bound) and random 3-SAT near the phase
// transition; plus the graded Week 4 path, DIMACS text through
// api::solve_sat.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "api/sat.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

using namespace l2l;

void add_pigeonhole(sat::Solver& s, int holes) {
  const int pigeons = holes + 1;
  s.reserve_vars(pigeons * holes);
  for (int p = 0; p < pigeons; ++p) {
    std::vector<sat::Lit> c;
    for (int h = 0; h < holes; ++h) c.push_back(sat::mk_lit(p * holes + h));
    s.add_clause(c);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        s.add_clause({~sat::mk_lit(p1 * holes + h), ~sat::mk_lit(p2 * holes + h)});
}

void add_random_3sat(sat::Solver& s, int vars, double ratio, util::Rng& rng) {
  s.reserve_vars(vars);
  const int clauses = static_cast<int>(ratio * vars);
  for (int k = 0; k < clauses; ++k) {
    std::vector<sat::Lit> c;
    while (c.size() < 3) {
      const sat::Lit p(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(vars))),
                       rng.next_bool());
      bool dup = false;
      for (const auto q : c) dup |= q.var() == p.var();
      if (!dup) c.push_back(p);
    }
    s.add_clause(c);
  }
}

void BM_Pigeonhole(benchmark::State& state) {
  const int holes = static_cast<int>(state.range(0));
  const bool vsids = state.range(1) != 0;
  std::int64_t conflicts = 0;
  for (auto _ : state) {
    sat::SolverOptions opt;
    opt.use_vsids = vsids;
    sat::Solver s(opt);
    add_pigeonhole(s, holes);
    benchmark::DoNotOptimize(s.solve());
    conflicts = s.stats().conflicts;
    state.counters["conflicts"] = static_cast<double>(conflicts);
  }
  (void)conflicts;
  state.SetLabel(vsids ? "VSIDS" : "static order");
}
BENCHMARK(BM_Pigeonhole)->Args({6, 1})->Args({6, 0})->Args({7, 1})->Iterations(1);

void BM_Random3SatPhaseTransition(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  const bool restarts = state.range(1) != 0;
  std::int64_t conflicts = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    util::Rng rng(seed++);
    sat::SolverOptions opt;
    opt.use_restarts = restarts;
    sat::Solver s(opt);
    add_random_3sat(s, vars, 4.26, rng);
    benchmark::DoNotOptimize(s.solve());
    conflicts += s.stats().conflicts;
    state.counters["conflicts_total"] = static_cast<double>(conflicts);
  }
  state.SetLabel(restarts ? "Luby restarts" : "no restarts");
}
BENCHMARK(BM_Random3SatPhaseTransition)
    ->Args({60, 1})
    ->Args({60, 0})
    ->Args({90, 1})
    ->Iterations(3);

void BM_UnitPropagationThroughput(benchmark::State& state) {
  // Long implication chains: measures the watched-literal machinery.
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sat::Solver s;
    s.reserve_vars(n);
    for (int i = 0; i + 1 < n; ++i)
      s.add_clause({~sat::mk_lit(i), sat::mk_lit(i + 1)});
    s.add_clause({sat::mk_lit(0)});
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_UnitPropagationThroughput)->Arg(1000)->Arg(10000);

void BM_WidePropagation(benchmark::State& state) {
  // Wide ternary implication layers: every assignment visits a long
  // watcher list, so this is the cache-miss profile the clause-arena +
  // blocker-watch layout targets (most visits end at the blocker).
  const int layers = static_cast<int>(state.range(0));
  const int width = 16;
  for (auto _ : state) {
    sat::Solver s;
    s.reserve_vars(layers * width);
    for (int l = 0; l + 1 < layers; ++l)
      for (int a = 0; a < width; ++a)
        for (int b = 0; b < width; ++b)
          s.add_clause({~sat::mk_lit(l * width + a), ~sat::mk_lit(l * width + b),
                        sat::mk_lit((l + 1) * width + (a + b) % width)});
    for (int a = 0; a < width; ++a) s.add_clause({sat::mk_lit(a)});
    benchmark::DoNotOptimize(s.solve());
    state.counters["propagations"] =
        static_cast<double>(s.stats().propagations);
  }
}
BENCHMARK(BM_WidePropagation)->Arg(16)->Arg(64);

void BM_ClauseIngestion(benchmark::State& state) {
  // add_clause throughput on a pre-generated 3-SAT instance: measures
  // per-clause allocation churn (unique_ptr-per-clause vs. one arena).
  const int vars = static_cast<int>(state.range(0));
  util::Rng rng(42);
  std::vector<std::vector<sat::Lit>> clauses;
  const int n_clauses = 4 * vars;
  clauses.reserve(static_cast<std::size_t>(n_clauses));
  for (int k = 0; k < n_clauses; ++k) {
    std::vector<sat::Lit> c;
    while (c.size() < 3) {
      const sat::Lit p(
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(vars))),
          rng.next_bool());
      bool dup = false;
      for (const auto q : c) dup |= q.var() == p.var();
      if (!dup) c.push_back(p);
    }
    clauses.push_back(std::move(c));
  }
  for (auto _ : state) {
    sat::Solver s;
    s.reserve_vars(vars);
    for (const auto& c : clauses) s.add_clause(c);
    benchmark::DoNotOptimize(s.num_clauses());
  }
  state.SetItemsProcessed(state.iterations() * n_clauses);
}
BENCHMARK(BM_ClauseIngestion)->Arg(2000)->Arg(20000);

/// DIMACS text of `clauses` (1-based signed literals) in shuffled order.
std::string dimacs_text(int num_vars, std::vector<std::vector<int>> clauses,
                        util::Rng& rng) {
  rng.shuffle(clauses);
  std::string out = util::format("p cnf %d %d\n", num_vars,
                                 static_cast<int>(clauses.size()));
  for (const auto& cl : clauses) {
    for (const int lit : cl) out += std::to_string(lit) + " ";
    out += "0\n";
  }
  return out;
}

/// The Week 4 homework shapes the grading service sees: three in five are
/// planted 3-SAT at clause ratio 4 over 50-80 variables, the rest PHP(5,4)
/// or PHP(6,5) under a random variable relabelling.
std::vector<std::string> course_formulas(int count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::string> out;
  for (int n = 0; n < count; ++n) {
    std::vector<std::vector<int>> clauses;
    int num_vars = 0;
    if (n % 5 < 3) {
      num_vars = 50 + static_cast<int>(rng.next_below(31));
      std::vector<bool> planted(static_cast<std::size_t>(num_vars) + 1);
      for (int v = 1; v <= num_vars; ++v)
        planted[static_cast<std::size_t>(v)] = rng.next_bool();
      while (static_cast<int>(clauses.size()) < 4 * num_vars) {
        std::vector<int> cl;
        bool satisfied = false;
        while (cl.size() < 3) {
          const int v = 1 + static_cast<int>(rng.next_below(
                                static_cast<std::uint64_t>(num_vars)));
          if (std::find(cl.begin(), cl.end(), v) != cl.end() ||
              std::find(cl.begin(), cl.end(), -v) != cl.end())
            continue;
          const bool positive = rng.next_bool();
          satisfied |= positive == planted[static_cast<std::size_t>(v)];
          cl.push_back(positive ? v : -v);
        }
        if (satisfied) clauses.push_back(std::move(cl));
      }
    } else {
      const int holes = 4 + (n / 5) % 2;
      const int pigeons = holes + 1;
      num_vars = pigeons * holes;
      std::vector<int> label(static_cast<std::size_t>(num_vars));
      std::iota(label.begin(), label.end(), 1);
      rng.shuffle(label);
      auto x = [&](int p, int h) {
        return label[static_cast<std::size_t>(p * holes + h)];
      };
      for (int p = 0; p < pigeons; ++p) {
        std::vector<int> cl;
        for (int h = 0; h < holes; ++h) cl.push_back(x(p, h));
        rng.shuffle(cl);
        clauses.push_back(std::move(cl));
      }
      for (int h = 0; h < holes; ++h)
        for (int p = 0; p < pigeons; ++p)
          for (int q = p + 1; q < pigeons; ++q)
            clauses.push_back({-x(p, h), -x(q, h)});
    }
    out.push_back(dimacs_text(num_vars, std::move(clauses), rng));
  }
  return out;
}

void BM_SolveSatCourse(benchmark::State& state) {
  // One iteration grades 20 course-shaped formulas through the facade,
  // cache off: parse, load, search and the model text.
  const auto formulas = course_formulas(20, 4);
  for (auto _ : state) {
    for (const auto& text : formulas) {
      api::SatRequest req;
      req.dimacs = text;
      req.use_cache = false;
      benchmark::DoNotOptimize(api::solve_sat(req).exit_code);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(formulas.size()));
}
BENCHMARK(BM_SolveSatCourse)->Unit(benchmark::kMillisecond);

}  // namespace
