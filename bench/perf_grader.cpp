// Routing-grader benchmarks on the semester benchmark's reference size
// (48x48 grid, 32 three-pin nets, no obstacles): grading an upload end to
// end from its text, parsing the text alone, and checking an
// already-parsed solution. Uploads are the reference routing plus the
// defect mix a semester sees (clean, cut, missing), so every check path
// of the grader runs.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "gen/routing_gen.hpp"
#include "grader/route_grader.hpp"
#include "route/router.hpp"
#include "route/solution.hpp"
#include "util/rng.hpp"

namespace {

using namespace l2l;

struct Fixture {
  gen::RoutingProblem problem;
  std::vector<std::string> uploads;
  std::vector<route::RouteSolution> solutions;
};

const Fixture& fixture() {
  static const Fixture fx = [] {
    Fixture f;
    util::Rng rng(2014);
    gen::RoutingGenOptions opt;
    opt.width = opt.height = 48;
    opt.num_nets = 32;
    opt.max_pins_per_net = 3;
    opt.obstacle_fraction = 0.0;
    f.problem = gen::generate_routing(opt, rng);
    const auto ref = route::route_all(f.problem);
    for (int variant = 0; variant < 4; ++variant) {
      auto sol = ref;
      for (std::size_t i = 0; i < sol.nets.size(); ++i) {
        auto& cells = sol.nets[i].cells;
        if (i % 4 != static_cast<std::size_t>(variant) || cells.size() < 3)
          continue;
        if (variant == 1) cells.erase(cells.begin() + 1);  // cut
        if (variant == 2) cells.clear();                   // missing
      }
      f.uploads.push_back(route::write_solution(sol));
      f.solutions.push_back(std::move(sol));
    }
    return f;
  }();
  return fx;
}

std::int64_t total_bytes(const std::vector<std::string>& texts) {
  std::int64_t n = 0;
  for (const auto& t : texts) n += static_cast<std::int64_t>(t.size());
  return n;
}

// The grader's whole text path: lenient parse, pre-grade lint, sema sniff
// and the per-net legality checks.
void BM_GradeRoutingText(benchmark::State& state) {
  const auto& fx = fixture();
  for (auto _ : state)
    for (const auto& text : fx.uploads) {
      auto g = grader::grade_routing_text(fx.problem, text);
      benchmark::DoNotOptimize(g);
    }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.uploads.size()));
  state.SetBytesProcessed(state.iterations() * total_bytes(fx.uploads));
}
BENCHMARK(BM_GradeRoutingText);

// The per-net checks alone (bounds, obstacle, duplicate, overlap, pins,
// connectivity, vias) on parsed solutions.
void BM_GradeRouting(benchmark::State& state) {
  const auto& fx = fixture();
  for (auto _ : state)
    for (const auto& sol : fx.solutions) {
      auto g = grader::grade_routing(fx.problem, sol);
      benchmark::DoNotOptimize(g);
    }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.solutions.size()));
}
BENCHMARK(BM_GradeRouting);

// The lenient solution parse alone.
void BM_ParseSolution(benchmark::State& state) {
  const auto& fx = fixture();
  for (auto _ : state)
    for (const auto& text : fx.uploads) {
      auto parsed = route::parse_solution_lenient(text);
      benchmark::DoNotOptimize(parsed);
    }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.uploads.size()));
  state.SetBytesProcessed(state.iterations() * total_bytes(fx.uploads));
}
BENCHMARK(BM_ParseSolution);

}  // namespace
