#include <gtest/gtest.h>

#include "grader/place_grader.hpp"
#include "grader/route_grader.hpp"
#include "place/annealing.hpp"
#include "place/quadratic.hpp"
#include "place/wirelength.hpp"
#include "route/router.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace l2l::grader {
namespace {

gen::RoutingProblem route_problem(util::Rng& rng) {
  gen::RoutingGenOptions opt;
  opt.width = 24;
  opt.height = 24;
  opt.num_nets = 8;
  opt.obstacle_fraction = 0.05;
  return gen::generate_routing(opt, rng);
}

TEST(RouteGrader, AcceptsRouterOutput) {
  util::Rng rng(151);
  const auto p = route_problem(rng);
  const auto sol = route::route_all(p);
  const auto g = grade_routing(p, sol);
  EXPECT_EQ(g.legal_nets, g.total_nets);
  EXPECT_DOUBLE_EQ(g.score, 100.0);
  EXPECT_NE(g.report.find("OK"), std::string::npos);
}

TEST(RouteGrader, DetectsMissingNet) {
  util::Rng rng(152);
  const auto p = route_problem(rng);
  auto sol = route::route_all(p);
  sol.nets[0].cells.clear();
  const auto g = grade_routing(p, sol);
  EXPECT_EQ(g.legal_nets, g.total_nets - 1);
  EXPECT_LT(g.score, 100.0);
  EXPECT_NE(g.report.find("missing"), std::string::npos);
}

TEST(RouteGrader, DetectsDisconnection) {
  util::Rng rng(153);
  const auto p = route_problem(rng);
  auto sol = route::route_all(p);
  // Find a net with a removable middle cell (non-pin).
  for (auto& net : sol.nets) {
    if (net.cells.size() < 4) continue;
    std::set<gen::GridPoint> pins(p.nets[static_cast<std::size_t>(net.net_id)].pins.begin(),
                                  p.nets[static_cast<std::size_t>(net.net_id)].pins.end());
    for (std::size_t k = 0; k < net.cells.size(); ++k) {
      if (pins.count(net.cells[k])) continue;
      net.cells.erase(net.cells.begin() + static_cast<std::ptrdiff_t>(k));
      break;
    }
    break;
  }
  const auto g = grade_routing(p, sol);
  EXPECT_LT(g.legal_nets, g.total_nets);
}

TEST(RouteGrader, DetectsObstacleViolation) {
  gen::RoutingProblem p;
  p.width = p.height = 4;
  p.num_layers = 2;
  p.blocked.assign(2, std::vector<bool>(16, false));
  p.blocked[0][1] = true;  // (1,0,0)
  p.nets.push_back({0, {{0, 0, 0}, {2, 0, 0}}});
  route::RouteSolution sol;
  route::NetRoute net;
  net.net_id = 0;
  net.cells = {{0, 0, 0}, {1, 0, 0}, {2, 0, 0}};  // through the obstacle
  sol.nets.push_back(net);
  const auto g = grade_routing(p, sol);
  EXPECT_EQ(g.legal_nets, 0);
  EXPECT_NE(g.report.find("obstacle"), std::string::npos);
}

TEST(RouteGrader, DetectsOverlap) {
  gen::RoutingProblem p;
  p.width = p.height = 4;
  p.num_layers = 2;
  p.blocked.assign(2, std::vector<bool>(16, false));
  p.nets.push_back({0, {{0, 0, 0}, {2, 0, 0}}});
  p.nets.push_back({1, {{0, 1, 0}, {2, 1, 0}}});
  route::RouteSolution sol;
  route::NetRoute n0, n1;
  n0.net_id = 0;
  n0.cells = {{0, 0, 0}, {1, 0, 0}, {2, 0, 0}};
  n1.net_id = 1;
  n1.cells = {{0, 1, 0}, {1, 0, 0}, {1, 1, 0}, {2, 1, 0}};  // reuses (1,0,0)
  sol.nets = {n0, n1};
  const auto g = grade_routing(p, sol);
  EXPECT_EQ(g.legal_nets, 1);
  EXPECT_NE(g.report.find("overlaps"), std::string::npos);
}

// An empty 4x4 grid with `layers` layers and the given nets.
gen::RoutingProblem open_grid(int layers, std::vector<gen::RoutingNet> nets) {
  gen::RoutingProblem p;
  p.width = p.height = 4;
  p.num_layers = layers;
  p.blocked.assign(static_cast<std::size_t>(layers), std::vector<bool>(16, false));
  p.nets = std::move(nets);
  return p;
}

route::RouteSolution one_net(int id, std::vector<gen::GridPoint> cells) {
  route::RouteSolution sol;
  route::NetRoute net;
  net.net_id = id;
  net.cells = std::move(cells);
  sol.nets.push_back(std::move(net));
  return sol;
}

TEST(RouteGrader, DetectsDuplicateCell) {
  const auto p = open_grid(2, {{0, {{0, 0, 0}, {2, 0, 0}}}});
  const auto g = grade_routing(
      p, one_net(0, {{0, 0, 0}, {1, 0, 0}, {1, 0, 0}, {2, 0, 0}}));
  ASSERT_EQ(g.nets.size(), 1u);
  EXPECT_FALSE(g.nets[0].legal);
  EXPECT_EQ(g.nets[0].reason, "duplicate cell (1 0 0)");
}

TEST(RouteGrader, DetectsUncoveredPin) {
  const auto p = open_grid(2, {{0, {{0, 0, 0}, {2, 0, 0}}}});
  const auto g = grade_routing(p, one_net(0, {{0, 0, 0}, {1, 0, 0}}));
  EXPECT_EQ(g.legal_nets, 0);
  EXPECT_EQ(g.nets[0].reason, "pin (2 0 0) not covered");
}

TEST(RouteGrader, DetectsOutOfBoundsCell) {
  const auto p = open_grid(2, {{0, {{0, 0, 0}, {3, 0, 0}}}});
  for (const gen::GridPoint bad : {gen::GridPoint{4, 0, 0}, {0, -1, 0},
                                   {0, 0, 2}, {0, 0, -1}}) {
    const auto g = grade_routing(p, one_net(0, {{0, 0, 0}, bad, {3, 0, 0}}));
    EXPECT_EQ(g.nets[0].reason,
              util::format("cell (%d %d %d) out of bounds", bad.x, bad.y,
                           bad.layer));
  }
}

TEST(RouteGrader, CountsViasOnThreeLayers) {
  // Layers 1 and 2 both count as the upper side of a via: (0 0) has its
  // upper cell on layer 2 only, (1 0) on layers 1 and 2 (one via), (3 0)
  // on both as well.
  const auto p = open_grid(3, {{0, {{0, 0, 0}, {3, 0, 0}}}});
  const auto sol = one_net(0, {{0, 0, 0}, {1, 0, 0}, {1, 0, 1}, {1, 0, 2},
                               {0, 0, 2}, {2, 0, 2}, {3, 0, 2}, {3, 0, 1},
                               {3, 0, 0}});
  const auto g = grade_routing(p, sol);
  ASSERT_EQ(g.legal_nets, 1) << g.report;
  EXPECT_EQ(g.nets[0].vias, 3);
  EXPECT_EQ(g.nets[0].vias, route::count_vias(sol.nets[0]));
  EXPECT_EQ(g.total_vias, 3);
  EXPECT_EQ(g.nets[0].wirelength, 9);
}

TEST(RouteGrader, FailedNetStillOwnsItsCells) {
  // Net 0 fails on its pin check, after claiming (0 0 0) and (1 0 0);
  // net 1 then crossing (1 0 0) is an overlap with net 0.
  const auto p = open_grid(2, {{0, {{0, 0, 0}, {2, 0, 0}}},
                               {1, {{0, 1, 0}, {2, 1, 0}}}});
  auto sol = one_net(0, {{0, 0, 0}, {1, 0, 0}});
  sol.nets.push_back(
      one_net(1, {{0, 1, 0}, {1, 1, 0}, {1, 0, 0}, {2, 1, 0}}).nets[0]);
  const auto g = grade_routing(p, sol);
  ASSERT_EQ(g.nets.size(), 2u);
  EXPECT_EQ(g.nets[0].reason, "pin (2 0 0) not covered");
  EXPECT_EQ(g.nets[1].reason, "cell (1 0 0) overlaps net 0");
}

TEST(RouteGrader, TextPathHandlesGarbage) {
  util::Rng rng(154);
  const auto p = route_problem(rng);
  const auto g = grade_routing_text(p, "this is not a solution");
  EXPECT_DOUBLE_EQ(g.score, 0.0);
  EXPECT_NE(g.report.find("parse error"), std::string::npos);
}

TEST(RouteGrader, TextRoundTripKeepsScore) {
  util::Rng rng(155);
  const auto p = route_problem(rng);
  const auto sol = route::route_all(p);
  const auto g = grade_routing_text(p, route::write_solution(sol));
  EXPECT_DOUBLE_EQ(g.score, 100.0);
}

TEST(PlaceGrader, AcceptsLegalizedQuadratic) {
  util::Rng rng(156);
  gen::PlacementGenOptions gopt;
  gopt.num_cells = 80;
  const auto p = gen::generate_placement(gopt, rng);
  const place::Grid grid{10, 10, p.width, p.height};
  const auto gp = place::legalize(p, place::place_quadratic(p), grid);
  const double ref = place::hpwl(p, gp.to_continuous(grid));
  const auto g = grade_placement(p, grid, gp, ref);
  EXPECT_TRUE(g.legal);
  EXPECT_DOUBLE_EQ(g.score, 100.0);  // matches its own reference
}

TEST(PlaceGrader, RejectsCollision) {
  util::Rng rng(157);
  gen::PlacementGenOptions gopt;
  gopt.num_cells = 20;
  const auto p = gen::generate_placement(gopt, rng);
  const place::Grid grid{5, 5, p.width, p.height};
  auto gp = place::legalize(p, place::place_quadratic(p), grid);
  gp.col[1] = gp.col[0];
  gp.row[1] = gp.row[0];
  const auto g = grade_placement(p, grid, gp, 100.0);
  EXPECT_FALSE(g.legal);
  EXPECT_DOUBLE_EQ(g.score, 0.0);
}

TEST(PlaceGrader, BetterPlacementScoresHigher) {
  util::Rng rng(158);
  gen::PlacementGenOptions gopt;
  gopt.num_cells = 80;
  const auto p = gen::generate_placement(gopt, rng);
  const place::Grid grid{10, 10, p.width, p.height};
  const auto good = place::legalize(p, place::place_quadratic(p), grid);
  util::Rng r2(1);
  const auto bad = place::random_grid_placement(p, grid, r2);
  const double ref = place::hpwl(p, good.to_continuous(grid));
  const auto gg = grade_placement(p, grid, good, ref);
  const auto gb = grade_placement(p, grid, bad, ref);
  EXPECT_GT(gg.score, gb.score);
  EXPECT_GE(gb.score, 50.0);  // legal still earns legality points
}

TEST(PlaceGrader, TextRoundTrip) {
  util::Rng rng(159);
  gen::PlacementGenOptions gopt;
  gopt.num_cells = 30;
  const auto p = gen::generate_placement(gopt, rng);
  const place::Grid grid{6, 6, p.width, p.height};
  const auto gp = place::legalize(p, place::place_quadratic(p), grid);
  const auto text = write_placement_text(gp);
  const auto again = parse_placement_text(text, p.num_cells);
  EXPECT_EQ(again.col, gp.col);
  EXPECT_EQ(again.row, gp.row);
  const double ref = place::hpwl(p, gp.to_continuous(grid));
  EXPECT_TRUE(grade_placement_text(p, grid, text, ref).legal);
}

TEST(PlaceGrader, TextErrors) {
  util::Rng rng(160);
  gen::PlacementGenOptions gopt;
  gopt.num_cells = 10;
  const auto p = gen::generate_placement(gopt, rng);
  const place::Grid grid{4, 4, p.width, p.height};
  EXPECT_DOUBLE_EQ(grade_placement_text(p, grid, "gibberish", 1.0).score, 0.0);
  EXPECT_DOUBLE_EQ(grade_placement_text(p, grid, "cell 0 1 1\n", 1.0).score,
                   0.0);  // cells missing
  EXPECT_THROW(parse_placement_text("cell 99 0 0\n", 10), std::invalid_argument);
}

}  // namespace
}  // namespace l2l::grader
