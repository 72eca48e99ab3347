// Router benchmarks + ablations: the maze kernel's cost per expansion, A*
// vs Dijkstra search effort, the preferred-direction penalty's effect on
// vias/quality, via-cost sweeps, and multi-thread scaling of the
// negotiated-congestion router.

#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "gen/routing_gen.hpp"
#include "route/maze.hpp"
#include "route/router.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace l2l;

gen::RoutingProblem problem(int size, int nets, std::uint64_t seed) {
  util::Rng rng(seed);
  gen::RoutingGenOptions opt;
  opt.width = opt.height = size;
  opt.num_nets = nets;
  opt.max_pins_per_net = 3;
  return gen::generate_routing(opt, rng);
}

void BM_FindPath(benchmark::State& state) {
  // The maze kernel alone: one single-target A* search per net of a
  // flow-sized 60x60x2 die, through a seeded penalty field like the one a
  // negotiation iteration prices (most points free, the rest history in
  // steps of 3 plus a present-sharing term), on one reused arena, with
  // every pin reserved for its net as route_all does.
  // ns_per_expansion divides the searches' wall time by their expansions,
  // so it reads the cost of one expansion with the search effort factored
  // out.
  const auto p = problem(60, 60, 28);
  route::Occupancy occ(p);
  for (const auto& net : p.nets)
    for (const auto& pin : net.pins) occ.set(pin, net.id);
  util::Rng rng(29);
  std::vector<double> field(60 * 60 * 2);
  for (auto& f : field)
    f = rng.next_bool(0.6) ? 0.0
                           : 3.0 * static_cast<double>(rng.next_below(4)) +
                                 0.6 * static_cast<double>(rng.next_in(1, 8));
  const route::RouteCosts costs;
  route::SearchArena arena;
  long long expansions = 0;
  auto search_all = [&] {
    for (const auto& net : p.nets) {
      const auto path = route::find_path(arena, occ, {net.pins[0]}, {net.pins[1]},
                                         net.id, costs, &field);
      if (path) expansions += path->expansions;
      benchmark::DoNotOptimize(path);
    }
  };
  search_all();  // grows the arena outside the timed passes
  expansions = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    search_all();
    seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  state.counters["expansions"] =
      static_cast<double>(expansions) / static_cast<double>(state.iterations());
  state.counters["ns_per_expansion"] = seconds * 1e9 / static_cast<double>(expansions);
}
BENCHMARK(BM_FindPath);

void BM_AStarVsDijkstra(benchmark::State& state) {
  const bool astar = state.range(0) != 0;
  const auto p = problem(64, 32, 21);
  long long expansions = 0;
  for (auto _ : state) {
    route::RouterOptions opt;
    opt.costs.use_astar = astar;
    const auto sol = route::route_all(p, opt);
    expansions = sol.stats.expansions;
    state.counters["expansions"] = static_cast<double>(expansions);
  }
  (void)expansions;
  state.SetLabel(astar ? "A* (manhattan lower bound)" : "Dijkstra/Lee");
}
BENCHMARK(BM_AStarVsDijkstra)->Arg(1)->Arg(0)->Iterations(1);

void BM_PreferredDirections(benchmark::State& state) {
  const bool preferred = state.range(0) != 0;
  const auto p = problem(64, 40, 22);
  int vias = 0, routed = 0;
  double wire = 0;
  for (auto _ : state) {
    route::RouterOptions opt;
    opt.costs.preferred_directions = preferred;
    const auto sol = route::route_all(p, opt);
    vias = sol.stats.total_vias;
    wire = sol.stats.total_wire;
    routed = sol.stats.routed;
    state.counters["vias"] = vias;
    state.counters["wire"] = wire;
    state.counters["routed"] = routed;
  }
  (void)routed;
  state.SetLabel(preferred ? "layer-preferred directions" : "isotropic");
}
BENCHMARK(BM_PreferredDirections)->Arg(1)->Arg(0)->Iterations(1);

void BM_ViaCostSweep(benchmark::State& state) {
  const double via_cost = static_cast<double>(state.range(0));
  const auto p = problem(48, 30, 23);
  int vias = 0;
  for (auto _ : state) {
    route::RouterOptions opt;
    opt.costs.via = via_cost;
    const auto sol = route::route_all(p, opt);
    vias = sol.stats.total_vias;
    state.counters["vias"] = vias;
  }
  (void)vias;
}
BENCHMARK(BM_ViaCostSweep)->Arg(1)->Arg(5)->Arg(20)->Iterations(1);

void BM_NegotiatedVsSequential(benchmark::State& state) {
  // Negotiated congestion on the congested 48x48/40-net die. The name and
  // the /1 argument stay so the row lines up across the BENCH_route.json
  // trajectory. repairs and repair_expansions show how much of the
  // search the negotiation tail's branch repairs took.
  const auto p = problem(48, 40, 25);
  int routed = 0, iterations = 0;
  for (auto _ : state) {
    const auto sol = route::route_all(p);
    routed = sol.stats.routed;
    iterations = sol.stats.negotiation_iterations;
    state.counters["routed_of_40"] = routed;
    state.counters["iterations"] = iterations;
    state.counters["expansions"] = static_cast<double>(sol.stats.expansions);
    state.counters["repairs"] = sol.stats.repairs;
    state.counters["repair_expansions"] = static_cast<double>(sol.stats.repair_expansions);
  }
  (void)routed;
  (void)iterations;
  state.SetLabel("negotiated congestion");
}
BENCHMARK(BM_NegotiatedVsSequential)->Arg(1)->Iterations(1);

void BM_RouteThreadScaling(benchmark::State& state) {
  // The tentpole measurement: negotiated routing on the largest generated
  // die at 1/2/4/8 threads. Wall-clock (real time) is the speedup metric;
  // the routed/wire counters double as a determinism cross-check -- they
  // must not move with the thread count.
  const int threads = static_cast<int>(state.range(0));
  const auto p = problem(128, 160, 27);
  util::set_num_threads(threads);
  route::RouteStats stats;
  for (auto _ : state) stats = route::route_all(p).stats;
  util::set_num_threads(0);
  state.counters["threads"] = threads;
  state.counters["routed"] = stats.routed;
  state.counters["wire"] = stats.total_wire;
  state.counters["repairs"] = stats.repairs;
  state.counters["repair_expansions"] = static_cast<double>(stats.repair_expansions);
}
BENCHMARK(BM_RouteThreadScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_GridScaling(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  const auto p = problem(size, size / 2, 24);
  for (auto _ : state) {
    const auto sol = route::route_all(p);
    benchmark::DoNotOptimize(sol.stats.routed);
  }
  state.SetComplexityN(size);
}
BENCHMARK(BM_GridScaling)->Arg(32)->Arg(64)->Arg(128)->Iterations(1)->Complexity();

}  // namespace
