// Two-level minimization benchmarks: the espresso loop vs. the exact
// Quine-McCluskey baseline, the single-pass (no REDUCE) ablation, and the
// raw cube-kernel microbenches that track the PCN data-layout trajectory
// (see DESIGN.md "Data layout & kernels").

#include <benchmark/benchmark.h>

#include <vector>

#include "cubes/cube.hpp"
#include "cubes/urp.hpp"
#include "espresso/minimize.hpp"
#include "espresso/qm.hpp"
#include "gen/function_gen.hpp"
#include "tt/truth_table.hpp"
#include "util/rng.hpp"

namespace {

using namespace l2l;

/// Deterministic random cube set: every position uniformly neg/pos/dc.
std::vector<cubes::Cube> random_cubes(int vars, int count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<cubes::Cube> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    cubes::Cube c(vars);
    for (int v = 0; v < vars; ++v)
      c.set_code(v, static_cast<cubes::Pcn>(rng.next_below(3) + 1));
    out.push_back(std::move(c));
  }
  return out;
}

void BM_CubeKernels(benchmark::State& state) {
  // The inner-loop quartet every espresso pass leans on: intersect,
  // distance, contains, num_literals, over all consecutive pairs of a
  // 256-cube set. Arg = arity; 224 crosses several 32-var word boundaries.
  const int vars = static_cast<int>(state.range(0));
  const auto cs = random_cubes(vars, 256, 7);
  std::int64_t acc = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i + 1 < cs.size(); ++i) {
      const auto& a = cs[i];
      const auto& b = cs[i + 1];
      acc += a.distance(b);
      acc += a.contains(b) ? 1 : 0;
      const auto x = a.intersect(b);
      acc += x.num_literals();
      acc += x.is_empty() ? 1 : 0;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cs.size() - 1) * 4);
}
BENCHMARK(BM_CubeKernels)->Arg(16)->Arg(64)->Arg(224);

void BM_CubeConsensus(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  const auto cs = random_cubes(vars, 256, 11);
  std::int64_t merged = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i + 1 < cs.size(); ++i)
      if (auto c = cs[i].consensus(cs[i + 1])) merged += c->num_literals();
    benchmark::DoNotOptimize(merged);
  }
}
BENCHMARK(BM_CubeConsensus)->Arg(16)->Arg(64)->Arg(224);

void BM_CoverContainment(benchmark::State& state) {
  // remove_contained_cubes is the O(n^2) contains() stress: sparse cubes
  // (mostly don't-care) so containment actually fires.
  const int vars = static_cast<int>(state.range(0));
  util::Rng rng(13);
  cubes::Cover base(vars);
  for (int i = 0; i < 192; ++i) {
    cubes::Cube c(vars);
    for (int k = 0; k < 4; ++k)
      c.set_code(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(vars))),
                 rng.next_bool() ? cubes::Pcn::kPos : cubes::Pcn::kNeg);
    base.add(std::move(c));
  }
  for (auto _ : state) {
    cubes::Cover work = base;
    work.remove_contained_cubes();
    benchmark::DoNotOptimize(work.size());
  }
  state.counters["cubes"] = base.size();
}
BENCHMARK(BM_CoverContainment)->Arg(16)->Arg(64)->Arg(224);

void BM_EspressoHeuristic(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  const bool single_pass = state.range(1) != 0;
  util::Rng rng(99);
  const auto f = gen::random_cover(vars, 4 * vars, rng);
  int final_cubes = 0;
  for (auto _ : state) {
    espresso::MinimizeOptions opt;
    opt.single_pass = single_pass;
    const auto m = espresso::minimize(f, cubes::Cover(vars), opt, nullptr);
    final_cubes = m.size();
    state.counters["cubes_in"] = f.size();
    state.counters["cubes_out"] = final_cubes;
  }
  (void)final_cubes;
  state.SetLabel(single_pass ? "expand+irredundant only" : "full loop");
}
BENCHMARK(BM_EspressoHeuristic)
    ->Args({5, 0})
    ->Args({5, 1})
    ->Args({7, 0})
    ->Args({7, 1});

void BM_ExactQuineMcCluskey(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  util::Rng rng(100);
  const auto ft = tt::TruthTable::random(vars, rng);
  const auto f = cubes::Cover::from_truth_table(ft);
  int cubes_out = 0;
  for (auto _ : state) {
    const auto m = espresso::exact_minimize(f);
    cubes_out = m.size();
    state.counters["cubes_out"] = cubes_out;
  }
  (void)cubes_out;
}
BENCHMARK(BM_ExactQuineMcCluskey)->Arg(4)->Arg(5)->Arg(6);

void BM_HeuristicVsExactGap(benchmark::State& state) {
  // Quality ablation: average cube-count gap on random 5-var functions.
  util::Rng rng(101);
  double gap = 0;
  int trials = 0;
  for (auto _ : state) {
    const auto ft = tt::TruthTable::random(5, rng);
    const auto f = cubes::Cover::from_truth_table(ft);
    if (f.empty()) continue;
    const auto h = espresso::minimize(f);
    const auto e = espresso::exact_minimize(f);
    gap += h.size() - e.size();
    ++trials;
    benchmark::DoNotOptimize(h.size());
  }
  if (trials) state.counters["avg_extra_cubes"] = gap / trials;
}
BENCHMARK(BM_HeuristicVsExactGap);

void BM_PrimeGeneration(benchmark::State& state) {
  const int vars = static_cast<int>(state.range(0));
  util::Rng rng(102);
  const auto ft = tt::TruthTable::random(vars, rng);
  const auto f = cubes::Cover::from_truth_table(ft);
  std::size_t primes = 0;
  for (auto _ : state) {
    primes = espresso::all_primes(f, cubes::Cover(vars)).size();
    state.counters["primes"] = static_cast<double>(primes);
  }
  (void)primes;
}
BENCHMARK(BM_PrimeGeneration)->Arg(5)->Arg(7)->Arg(9);

/// k cubes of two literals over disjoint variables (2k + 2 inputs) plus a
/// few rows contained in them: the graded-homework PLA shape. Its OFF-set
/// holds 2^k cubes, so the complement and REDUCE carry the cost.
cubes::Cover disjoint_support_cover(int k, std::uint64_t seed) {
  util::Rng rng(seed);
  const int vars = 2 * k + 2;
  std::vector<int> order(static_cast<std::size_t>(vars));
  for (int v = 0; v < vars; ++v) order[static_cast<std::size_t>(v)] = v;
  rng.shuffle(order);
  cubes::Cover f(vars);
  std::vector<cubes::Cube> ref;
  for (int g = 0; g < k; ++g) {
    cubes::Cube c(vars);
    for (int t = 0; t < 2; ++t)
      c.set_code(order[static_cast<std::size_t>(2 * g + t)],
                 rng.next_bool() ? cubes::Pcn::kPos : cubes::Pcn::kNeg);
    ref.push_back(c);
    f.add(std::move(c));
  }
  for (int extra = 0; extra < 3; ++extra) {
    cubes::Cube c = ref[rng.next_below(ref.size())];
    const int v = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(vars)));
    if (c.code(v) == cubes::Pcn::kDontCare)
      c.set_code(v, rng.next_bool() ? cubes::Pcn::kPos : cubes::Pcn::kNeg);
    f.add(std::move(c));
  }
  return f;
}

void BM_EspressoDisjointSupport(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto f = disjoint_support_cover(k, 17);
  for (auto _ : state) {
    const auto m = espresso::minimize(f);
    benchmark::DoNotOptimize(m);
    state.counters["cubes_out"] = m.size();
  }
}
BENCHMARK(BM_EspressoDisjointSupport)->Arg(5)->Arg(8);

void BM_ComplementDisjointSupport(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto f = disjoint_support_cover(k, 17);
  for (auto _ : state) {
    const auto r = cubes::complement(f);
    benchmark::DoNotOptimize(r);
    state.counters["cubes_out"] = r.size();
  }
}
BENCHMARK(BM_ComplementDisjointSupport)->Arg(5)->Arg(8);

/// REDUCE on the cover minimize() hands it: the expanded, irredundant
/// primes of the homework shape. Each cube's SCCC runs over the 2^(k-1)
/// leaves of the other cubes' cofactor.
void BM_ReduceDisjointSupport(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto f = disjoint_support_cover(k, 17);
  const cubes::Cover dc(f.num_vars());
  const auto primes = espresso::irredundant(
      espresso::expand(f, cubes::complement(f)), dc);
  for (auto _ : state) {
    const auto r = espresso::reduce(primes, dc);
    benchmark::DoNotOptimize(r);
    state.counters["cubes_out"] = r.size();
  }
}
BENCHMARK(BM_ReduceDisjointSupport)->Arg(5)->Arg(8);

void BM_ScccDisjointSupport(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const auto f = disjoint_support_cover(k, 17);
  for (auto _ : state) {
    const auto s = cubes::sccc(f);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_ScccDisjointSupport)->Arg(8);

}  // namespace
