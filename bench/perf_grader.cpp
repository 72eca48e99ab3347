// Grader benchmarks on the semester benchmark's reference sizes. Routing
// (48x48 grid, 32 three-pin nets, no obstacles): grading an upload end to
// end from its text, parsing the text alone, and checking an
// already-parsed solution. Uploads are the reference routing plus the
// defect mix a semester sees (clean, cut, missing), so every check path
// of the grader runs. Placement (240 cells, 24 pads, a 19x19 grid):
// grading an upload end to end from its text, over the same mix of
// legal, swapped, overlapping and malformed uploads.

#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "gen/placement_gen.hpp"
#include "gen/routing_gen.hpp"
#include "grader/place_grader.hpp"
#include "grader/route_grader.hpp"
#include "place/wirelength.hpp"
#include "route/router.hpp"
#include "route/solution.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

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

struct PlaceFixture {
  gen::PlacementProblem problem;
  place::Grid grid;
  double reference_hpwl = 0.0;
  std::vector<std::string> uploads;
};

const PlaceFixture& place_fixture() {
  static const PlaceFixture fx = [] {
    PlaceFixture f;
    util::Rng rng(2014);
    gen::PlacementGenOptions opt;
    opt.num_cells = 240;
    opt.num_pads = 24;
    f.problem = gen::generate_placement(opt, rng);
    const int side = static_cast<int>(std::ceil(std::sqrt(240 * 1.5)));
    f.grid = place::Grid{side, side, f.problem.width, f.problem.height};
    place::GridPlacement ref;
    for (int c = 0; c < opt.num_cells; ++c) {
      ref.col.push_back(c % side);
      ref.row.push_back(c / side);
    }
    f.reference_hpwl = place::hpwl(f.problem, ref.to_continuous(f.grid));
    for (int variant = 0; variant < 4; ++variant) {
      auto gp = ref;
      if (variant == 1) {  // swapped: legal, another HPWL
        std::swap(gp.col[3], gp.col[200]);
        std::swap(gp.row[3], gp.row[200]);
      }
      if (variant == 2) {  // two cells on one site
        gp.col[3] = gp.col[200];
        gp.row[3] = gp.row[200];
      }
      std::vector<std::string> lines;
      for (std::size_t c = 0; c < gp.col.size(); ++c)
        lines.push_back(util::format("cell %d %d %d", static_cast<int>(c),
                                     gp.col[c], gp.row[c]));
      if (variant == 3) lines[3] = "cell 3 1x 0";  // malformed
      for (std::size_t i = lines.size() - 1; i > 0; --i)
        std::swap(lines[i], lines[rng.next_below(i + 1)]);
      std::string text;
      for (const auto& l : lines) text += l + "\n";
      f.uploads.push_back(std::move(text));
    }
    return f;
  }();
  return fx;
}

// The placement grader's whole text path: lenient parse, pre-grade lint,
// sema sniff, legality and HPWL.
void BM_GradePlacementText(benchmark::State& state) {
  const auto& fx = place_fixture();
  for (auto _ : state)
    for (const auto& text : fx.uploads) {
      auto g = grader::grade_placement_text(fx.problem, fx.grid, text,
                                            fx.reference_hpwl);
      benchmark::DoNotOptimize(g);
    }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fx.uploads.size()));
  state.SetBytesProcessed(state.iterations() * total_bytes(fx.uploads));
}
BENCHMARK(BM_GradePlacementText);

}  // namespace
