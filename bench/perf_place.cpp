// Placement benchmarks + ablations: clique vs star net models, recursion
// depth, annealing vs pure greedy descent, multi-thread scaling of the
// quadratic solve (parallel SpMV + chunk-ordered CG reductions), and the
// legality check every placement grade runs.

#include <benchmark/benchmark.h>

#include <cmath>

#include "gen/placement_gen.hpp"
#include "place/annealing.hpp"
#include "place/legalize.hpp"
#include "place/quadratic.hpp"
#include "place/wirelength.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace l2l;

gen::PlacementProblem problem(int cells, std::uint64_t seed) {
  util::Rng rng(seed);
  gen::PlacementGenOptions opt;
  opt.num_cells = cells;
  return gen::generate_placement(opt, rng);
}

void BM_QuadraticNetModel(benchmark::State& state) {
  const int cells = static_cast<int>(state.range(0));
  const bool star = state.range(1) != 0;
  const auto p = problem(cells, 11);
  double h = 0;
  for (auto _ : state) {
    place::QuadraticOptions opt;
    opt.net_model = star ? place::NetModel::kStar : place::NetModel::kClique;
    const auto pl = place::place_quadratic(p, opt);
    h = place::hpwl(p, pl);
    state.counters["hpwl"] = h;
  }
  (void)h;
  state.SetLabel(star ? "star model" : "clique model");
}
BENCHMARK(BM_QuadraticNetModel)
    ->Args({200, 0})
    ->Args({200, 1})
    ->Args({600, 0})
    ->Args({600, 1});

void BM_RecursionDepth(benchmark::State& state) {
  const int levels = static_cast<int>(state.range(0));
  const auto p = problem(400, 12);
  double h = 0;
  for (auto _ : state) {
    place::QuadraticOptions opt;
    opt.max_levels = levels;
    const auto pl = place::place_quadratic(p, opt);
    h = place::hpwl(p, pl);
    state.counters["hpwl"] = h;
  }
  (void)h;
}
BENCHMARK(BM_RecursionDepth)->Arg(0)->Arg(2)->Arg(4)->Arg(8);

void BM_PlaceThreadScaling(benchmark::State& state) {
  // Thread scaling of the full recursive quadratic placement on the
  // largest generated netlist. The hpwl counter must be thread-invariant.
  const int threads = static_cast<int>(state.range(0));
  const auto p = problem(3000, 15);
  util::set_num_threads(threads);
  double h = 0;
  for (auto _ : state) {
    const auto pl = place::place_quadratic(p);
    h = place::hpwl(p, pl);
  }
  util::set_num_threads(0);
  state.counters["threads"] = threads;
  state.counters["hpwl"] = h;
}
BENCHMARK(BM_PlaceThreadScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_AnnealVsGreedy(benchmark::State& state) {
  const bool greedy = state.range(0) != 0;
  const auto p = problem(150, 13);
  const place::Grid grid{14, 14, p.width, p.height};
  double final_cost = 0;
  for (auto _ : state) {
    util::Rng rng(7);
    const auto start = place::random_grid_placement(p, grid, rng);
    place::AnnealingOptions opt;
    opt.greedy = greedy;
    opt.moves_per_cell_per_stage = 8;
    place::AnnealingStats stats;
    benchmark::DoNotOptimize(place::anneal(p, grid, start, opt, rng, &stats));
    final_cost = stats.final_cost;
    state.counters["final_hpwl"] = final_cost;
  }
  (void)final_cost;
  state.SetLabel(greedy ? "greedy descent" : "simulated annealing");
}
BENCHMARK(BM_AnnealVsGreedy)->Arg(0)->Arg(1)->Iterations(1);

void BM_QuadraticSeedVsColdAnneal(benchmark::State& state) {
  // Flow ablation: annealing from a quadratic seed vs. from random.
  const bool quad_seed = state.range(0) != 0;
  const auto p = problem(150, 14);
  const place::Grid grid{14, 14, p.width, p.height};
  double final_cost = 0;
  for (auto _ : state) {
    util::Rng rng(9);
    const auto start =
        quad_seed ? place::legalize(p, place::place_quadratic(p), grid)
                  : place::random_grid_placement(p, grid, rng);
    place::AnnealingOptions opt;
    opt.moves_per_cell_per_stage = 6;
    place::AnnealingStats stats;
    benchmark::DoNotOptimize(place::anneal(p, grid, start, opt, rng, &stats));
    final_cost = stats.final_cost;
    state.counters["final_hpwl"] = final_cost;
  }
  (void)final_cost;
  state.SetLabel(quad_seed ? "quadratic seed" : "random seed");
}
BENCHMARK(BM_QuadraticSeedVsColdAnneal)->Arg(0)->Arg(1)->Iterations(1);

// place::is_legal on a legal row-major placement of `cells` cells on the
// smallest square grid with 1.5 sites per cell (the placement course's
// 240-cell layout at Arg 240): the whole placement is scanned, so this
// is the check's worst case.
void BM_IsLegal(benchmark::State& state) {
  const int cells = static_cast<int>(state.range(0));
  const int side = static_cast<int>(std::ceil(std::sqrt(cells * 1.5)));
  const place::Grid grid{side, side, 1.0, 1.0};
  util::Rng rng(15);
  place::GridPlacement gp;
  for (int c = 0; c < cells; ++c) {
    gp.col.push_back(c % side);
    gp.row.push_back(c / side);
  }
  for (int c = cells - 1; c > 0; --c) {  // cell order as a learner's file
    const auto k = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(c) + 1));
    std::swap(gp.col[static_cast<std::size_t>(c)], gp.col[k]);
    std::swap(gp.row[static_cast<std::size_t>(c)], gp.row[k]);
  }
  for (auto _ : state) {
    bool legal = place::is_legal(gp, grid);
    benchmark::DoNotOptimize(legal);
  }
  state.SetItemsProcessed(state.iterations() * cells);
}
BENCHMARK(BM_IsLegal)->Arg(240)->Arg(4096);

}  // namespace
