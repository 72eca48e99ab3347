#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "gen/placement_gen.hpp"
#include "place/annealing.hpp"
#include "place/legalize.hpp"
#include "place/quadratic.hpp"
#include "place/wirelength.hpp"
#include "util/rng.hpp"

namespace l2l::place {
namespace {

gen::PlacementProblem small_problem(util::Rng& rng, int cells = 120) {
  gen::PlacementGenOptions opt;
  opt.num_cells = cells;
  opt.num_pads = 16;
  return gen::generate_placement(opt, rng);
}

TEST(Generator, ProducesValidDeterministicProblems) {
  util::Rng a(91), b(91), c(92);
  const auto p1 = small_problem(a);
  const auto p2 = small_problem(b);
  const auto p3 = small_problem(c);
  EXPECT_EQ(p1.nets.size(), p2.nets.size());
  for (std::size_t n = 0; n < p1.nets.size(); ++n)
    EXPECT_EQ(p1.nets[n].size(), p2.nets[n].size());
  // Different seed differs somewhere.
  bool differs = p1.nets.size() != p3.nets.size();
  for (std::size_t n = 0; !differs && n < std::min(p1.nets.size(), p3.nets.size()); ++n)
    differs = p1.nets[n].size() != p3.nets[n].size() ||
              (p1.nets[n][0].index != p3.nets[n][0].index);
  EXPECT_TRUE(differs);
}

TEST(Wirelength, HpwlSimpleNet) {
  gen::PlacementProblem p;
  p.num_cells = 2;
  p.width = p.height = 10;
  p.nets = {{{false, 0}, {false, 1}}};
  Placement pl;
  pl.x = {1.0, 4.0};
  pl.y = {2.0, 6.0};
  EXPECT_DOUBLE_EQ(hpwl(p, pl), 3.0 + 4.0);
}

TEST(Wirelength, HpwlWithPad) {
  gen::PlacementProblem p;
  p.num_cells = 1;
  p.width = p.height = 10;
  p.pads = {{0.0, 0.0, "p0"}};
  p.nets = {{{false, 0}, {true, 0}}};
  Placement pl;
  pl.x = {3.0};
  pl.y = {4.0};
  EXPECT_DOUBLE_EQ(hpwl(p, pl), 7.0);
}

TEST(Quadratic, TwoCellsBetweenTwoPads) {
  // pad(0) - c0 - c1 - pad(10): optimum is even spacing 10/3, 20/3.
  gen::PlacementProblem p;
  p.num_cells = 2;
  p.width = p.height = 10;
  p.pads = {{0.0, 5.0, "l"}, {10.0, 5.0, "r"}};
  p.nets = {{{true, 0}, {false, 0}},
            {{false, 0}, {false, 1}},
            {{false, 1}, {true, 1}}};
  const auto pl = solve_global(p);
  EXPECT_NEAR(pl.x[0], 10.0 / 3, 1e-3);
  EXPECT_NEAR(pl.x[1], 20.0 / 3, 1e-3);
  EXPECT_NEAR(pl.y[0], 5.0, 1e-3);
  EXPECT_NEAR(pl.y[1], 5.0, 1e-3);
}

TEST(Quadratic, GlobalSolveBeatsRandomOnQuadraticObjective) {
  util::Rng rng(93);
  const auto p = small_problem(rng);
  const auto solved = solve_global(p);
  Placement random;
  for (int c = 0; c < p.num_cells; ++c) {
    random.x.push_back(rng.next_double() * p.width);
    random.y.push_back(rng.next_double() * p.height);
  }
  EXPECT_LT(quadratic_wirelength(p, solved), quadratic_wirelength(p, random));
}

TEST(Quadratic, RecursionSpreadsCells) {
  util::Rng rng(94);
  const auto p = small_problem(rng, 200);
  QuadraticStats gstats, rstats;
  const auto global_only = solve_global(p, {}, &gstats);
  const auto recursive = place_quadratic(p, {}, &rstats);
  EXPECT_EQ(gstats.regions_solved, 1);
  EXPECT_GT(rstats.regions_solved, 1);
  EXPECT_GT(rstats.levels, 1);

  // Spreading metric: mean pairwise min distance must improve (global
  // solutions clump near the center). Use coordinate variance as a proxy.
  auto variance = [&](const Placement& pl) {
    double mx = 0, my = 0;
    for (int c = 0; c < p.num_cells; ++c) {
      mx += pl.x[static_cast<std::size_t>(c)];
      my += pl.y[static_cast<std::size_t>(c)];
    }
    mx /= p.num_cells;
    my /= p.num_cells;
    double v = 0;
    for (int c = 0; c < p.num_cells; ++c) {
      const double dx = pl.x[static_cast<std::size_t>(c)] - mx;
      const double dy = pl.y[static_cast<std::size_t>(c)] - my;
      v += dx * dx + dy * dy;
    }
    return v / p.num_cells;
  };
  EXPECT_GT(variance(recursive), 1.5 * variance(global_only));
}

TEST(Quadratic, StarAndCliqueBothReasonable) {
  util::Rng rng(95);
  const auto p = small_problem(rng);
  QuadraticOptions clique;
  QuadraticOptions star;
  star.net_model = NetModel::kStar;
  const auto pc = place_quadratic(p, clique);
  const auto ps = place_quadratic(p, star);
  const double hc = hpwl(p, pc);
  const double hs = hpwl(p, ps);
  // Same ballpark: within 2x of each other (models differ, quality close).
  EXPECT_LT(hc, 2.0 * hs);
  EXPECT_LT(hs, 2.0 * hc);
}

TEST(Legalize, ProducesLegalPlacement) {
  util::Rng rng(96);
  const auto p = small_problem(rng);
  const auto pl = place_quadratic(p);
  const Grid grid{12, 12, p.width, p.height};
  const auto gp = legalize(p, pl, grid);
  EXPECT_TRUE(is_legal(gp, grid));
}

// ---- is_legal -------------------------------------------------------------

// A 4-site x 3-row grid; the physical size plays no part in legality.
const Grid kLegalityGrid{3, 4, 8.0, 6.0};

GridPlacement sites(std::vector<std::pair<int, int>> col_row) {
  GridPlacement gp;
  for (const auto& [col, row] : col_row) {
    gp.col.push_back(col);
    gp.row.push_back(row);
  }
  return gp;
}

TEST(IsLegal, DistinctInRangeSitesAreLegal) {
  // Corners included: (0, 0) and (sites_per_row - 1, rows - 1).
  EXPECT_TRUE(is_legal(sites({{0, 0}, {3, 2}, {1, 0}, {0, 1}, {3, 0}}),
                       kLegalityGrid));
  // Same column, different rows; same row, different columns.
  EXPECT_TRUE(is_legal(sites({{2, 0}, {2, 1}, {2, 2}, {0, 2}, {1, 2}}),
                       kLegalityGrid));
}

TEST(IsLegal, ACollisionOnTheFirstOrTheLastCellIsIllegal) {
  // The first cell shares the site of a later one.
  EXPECT_FALSE(is_legal(sites({{1, 1}, {0, 0}, {2, 2}, {1, 1}}),
                        kLegalityGrid));
  // The last cell lands on an earlier one's site.
  EXPECT_FALSE(is_legal(sites({{0, 0}, {2, 2}, {3, 1}, {3, 1}}),
                        kLegalityGrid));
  // (1, 2) and (2, 1) are different sites: packing keeps col and row apart.
  EXPECT_TRUE(is_legal(sites({{1, 2}, {2, 1}}), kLegalityGrid));
}

TEST(IsLegal, ASiteAtMinusOneOrAtTheBoundIsIllegal) {
  EXPECT_FALSE(is_legal(sites({{0, 0}, {-1, 1}}), kLegalityGrid));
  EXPECT_FALSE(is_legal(sites({{0, 0}, {1, -1}}), kLegalityGrid));
  EXPECT_FALSE(is_legal(sites({{4, 0}, {0, 0}}), kLegalityGrid));
  EXPECT_FALSE(is_legal(sites({{0, 3}, {1, 1}}), kLegalityGrid));
  // One inside each bound is fine.
  EXPECT_TRUE(is_legal(sites({{3, 2}, {0, 0}}), kLegalityGrid));
}

TEST(IsLegal, AnEmptyPlacementIsLegal) {
  EXPECT_TRUE(is_legal(GridPlacement{}, kLegalityGrid));
}

TEST(Legalize, ThrowsWhenTooSmall) {
  util::Rng rng(97);
  const auto p = small_problem(rng, 50);
  const auto pl = solve_global(p);
  EXPECT_THROW(legalize(p, pl, Grid{4, 4, p.width, p.height}),
               std::invalid_argument);
}

TEST(Legalize, RoughlyPreservesPositions) {
  util::Rng rng(98);
  const auto p = small_problem(rng);
  const auto pl = place_quadratic(p);
  const Grid grid{16, 16, p.width, p.height};
  const auto gp = legalize(p, pl, grid);
  const auto snapped = gp.to_continuous(grid);
  // Legalization must not explode the wirelength (allow 2.5x).
  EXPECT_LT(hpwl(p, snapped), 2.5 * hpwl(p, pl) + 100.0);
}

TEST(Annealing, ImprovesRandomStart) {
  util::Rng rng(99);
  const auto p = small_problem(rng);
  const Grid grid{12, 12, p.width, p.height};
  const auto start = random_grid_placement(p, grid, rng);
  AnnealingStats stats;
  AnnealingOptions opt;
  opt.moves_per_cell_per_stage = 6;  // keep the test fast
  const auto result = anneal(p, grid, start, opt, rng, &stats);
  EXPECT_TRUE(is_legal(result, grid));
  EXPECT_LT(stats.final_cost, stats.initial_cost);
  EXPECT_GT(stats.accepted, 0);
  EXPECT_GT(stats.initial_temperature, 0.0);
}

TEST(Annealing, DeterministicForSameSeed) {
  util::Rng prng(100);
  const auto p = small_problem(prng);
  const Grid grid{12, 12, p.width, p.height};
  AnnealingOptions opt;
  opt.moves_per_cell_per_stage = 3;
  util::Rng r1(7), r2(7);
  const auto s1 = random_grid_placement(p, grid, r1);
  const auto s2 = random_grid_placement(p, grid, r2);
  const auto a1 = anneal(p, grid, s1, opt, r1);
  const auto a2 = anneal(p, grid, s2, opt, r2);
  EXPECT_EQ(a1.col, a2.col);
  EXPECT_EQ(a1.row, a2.row);
}

TEST(Annealing, BeatsGreedyOnAverage) {
  util::Rng prng(101);
  const auto p = small_problem(prng, 80);
  const Grid grid{10, 10, p.width, p.height};
  double anneal_total = 0, greedy_total = 0;
  for (int trial = 0; trial < 3; ++trial) {
    util::Rng r(200 + static_cast<std::uint64_t>(trial));
    const auto start = random_grid_placement(p, grid, r);
    AnnealingOptions full;
    full.moves_per_cell_per_stage = 6;
    AnnealingOptions greedy = full;
    greedy.greedy = true;
    util::Rng ra(300 + static_cast<std::uint64_t>(trial));
    util::Rng rg(300 + static_cast<std::uint64_t>(trial));
    AnnealingStats sa, sg;
    anneal(p, grid, start, full, ra, &sa);
    anneal(p, grid, start, greedy, rg, &sg);
    anneal_total += sa.final_cost;
    greedy_total += sg.final_cost;
  }
  // Hill-climbing escape should help (allow slack: <= 1.05x).
  EXPECT_LE(anneal_total, greedy_total * 1.05);
}

TEST(Annealing, QuadraticSeedBeatsRandomSeed) {
  util::Rng prng(102);
  const auto p = small_problem(prng);
  const Grid grid{12, 12, p.width, p.height};
  const auto quad_seed = legalize(p, place_quadratic(p), grid);
  util::Rng r(5);
  const auto rand_seed = random_grid_placement(p, grid, r);
  const auto quad_cont = quad_seed.to_continuous(grid);
  const auto rand_cont = rand_seed.to_continuous(grid);
  EXPECT_LT(hpwl(p, quad_cont), hpwl(p, rand_cont));
}

// Sweep: the full flow (quadratic -> legalize -> anneal) monotonically
// improves HPWL at several sizes.
class FlowSweep : public ::testing::TestWithParam<int> {};

TEST_P(FlowSweep, QuadraticPlusAnnealImprovesHpwl) {
  util::Rng rng(1200 + static_cast<std::uint64_t>(GetParam()));
  gen::PlacementGenOptions gopt;
  gopt.num_cells = GetParam();
  const auto p = gen::generate_placement(gopt, rng);
  const int side = static_cast<int>(std::ceil(std::sqrt(p.num_cells * 1.3)));
  const Grid grid{side, side, p.width, p.height};

  const auto quad = place_quadratic(p);
  const auto legal = legalize(p, quad, grid);
  AnnealingOptions opt;
  opt.moves_per_cell_per_stage = 4;
  AnnealingStats stats;
  const auto final_pl = anneal(p, grid, legal, opt, rng, &stats);
  EXPECT_TRUE(is_legal(final_pl, grid));
  EXPECT_LE(stats.final_cost, stats.initial_cost);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FlowSweep, ::testing::Values(60, 150, 300));

}  // namespace
}  // namespace l2l::place
