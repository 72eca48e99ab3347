#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>

#include "cache/digest.hpp"
#include "grader/route_grader.hpp"
#include "obs/metrics.hpp"
#include "route/branch_repair.hpp"
#include "route/maze.hpp"
#include "route/router.hpp"
#include "route/solution.hpp"
#include "util/budget.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace l2l::route {
namespace {

gen::RoutingProblem empty_grid(int w, int h, int layers = 2) {
  gen::RoutingProblem p;
  p.width = w;
  p.height = h;
  p.num_layers = layers;
  p.blocked.assign(static_cast<std::size_t>(layers), std::vector<bool>(static_cast<std::size_t>(w) *
                                            static_cast<std::size_t>(h),
                                        false));
  return p;
}

// Is the net's cell set connected (orthogonal steps in-layer, vias between
// layers at the same x,y)?
bool connected(const NetRoute& net) {
  if (net.cells.empty()) return false;
  std::set<GridPoint> cells(net.cells.begin(), net.cells.end());
  std::vector<GridPoint> stack{net.cells.front()};
  std::set<GridPoint> seen;
  while (!stack.empty()) {
    const auto c = stack.back();
    stack.pop_back();
    if (!seen.insert(c).second) continue;
    const GridPoint nbrs[6] = {{c.x + 1, c.y, c.layer}, {c.x - 1, c.y, c.layer},
                               {c.x, c.y + 1, c.layer}, {c.x, c.y - 1, c.layer},
                               {c.x, c.y, c.layer + 1}, {c.x, c.y, c.layer - 1}};
    for (const auto& n : nbrs)
      if (cells.count(n)) stack.push_back(n);
  }
  return seen.size() == cells.size();
}

TEST(Maze, StraightShot) {
  const auto p = empty_grid(10, 10);
  Occupancy occ(p);
  const auto path = find_path(occ, {{0, 5, 0}}, {{9, 5, 0}}, 0, {});
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->cells.size(), 10u);
  EXPECT_DOUBLE_EQ(path->cost, 9.0);  // 9 steps on the preferred layer
}

TEST(Maze, NoPathThroughWall) {
  auto p = empty_grid(10, 10);
  // Wall across both layers at x=5.
  for (int layer = 0; layer < 2; ++layer)
    for (int y = 0; y < 10; ++y)
      p.blocked[static_cast<std::size_t>(layer)]
               [static_cast<std::size_t>(y) * 10 + 5] = true;
  Occupancy occ(p);
  EXPECT_FALSE(find_path(occ, {{0, 0, 0}}, {{9, 9, 0}}, 0, {}).has_value());
}

TEST(Maze, RoutesAroundObstacle) {
  auto p = empty_grid(10, 10);
  // Partial wall on layer 0 only; gap at the top.
  for (int y = 0; y < 9; ++y)
    p.blocked[0][static_cast<std::size_t>(y) * 10 + 5] = true;
  RouteCosts costs;
  costs.via = 1000.0;  // discourage layer change: must go around
  Occupancy occ(p);
  const auto path = find_path(occ, {{0, 0, 0}}, {{9, 0, 0}}, 0, costs);
  ASSERT_TRUE(path.has_value());
  bool visits_top = false;
  for (const auto& c : path->cells) {
    EXPECT_FALSE(p.is_blocked(c));
    if (c.y == 9) visits_top = true;
    EXPECT_EQ(c.layer, 0);
  }
  EXPECT_TRUE(visits_top);
}

TEST(Maze, CheapViaPrefersLayerChange) {
  auto p = empty_grid(10, 10);
  for (int y = 0; y < 10; ++y)
    p.blocked[0][static_cast<std::size_t>(y) * 10 + 5] = true;  // full wall, layer 0
  RouteCosts costs;
  costs.via = 2.0;
  Occupancy occ(p);
  const auto path = find_path(occ, {{0, 0, 0}}, {{9, 0, 0}}, 0, costs);
  ASSERT_TRUE(path.has_value());
  bool uses_layer1 = false;
  for (const auto& c : path->cells) uses_layer1 |= c.layer == 1;
  EXPECT_TRUE(uses_layer1);
}

TEST(Maze, PreferredDirectionPenaltyShapesRoute) {
  // Vertical run on layer 0 (horizontal-preferred) should switch to
  // layer 1 when vias are cheap, stay on layer 0 when vias are dear.
  const auto p = empty_grid(20, 20);
  Occupancy occ(p);
  RouteCosts cheap_via;
  cheap_via.via = 1.0;
  const auto with_via = find_path(occ, {{10, 0, 0}}, {{10, 19, 0}}, 0, cheap_via);
  ASSERT_TRUE(with_via.has_value());
  bool layer1 = false;
  for (const auto& c : with_via->cells) layer1 |= c.layer == 1;
  EXPECT_TRUE(layer1);

  RouteCosts dear_via;
  dear_via.via = 1e6;
  const auto without = find_path(occ, {{10, 0, 0}}, {{10, 19, 0}}, 0, dear_via);
  ASSERT_TRUE(without.has_value());
  for (const auto& c : without->cells) EXPECT_EQ(c.layer, 0);
  EXPECT_GT(without->cost, with_via->cost);
}

TEST(Maze, AStarAndDijkstraAgreeOnCost) {
  util::Rng rng(121);
  gen::RoutingGenOptions gopt;
  gopt.width = 24;
  gopt.height = 24;
  gopt.num_nets = 8;
  const auto p = gen::generate_routing(gopt, rng);
  Occupancy occ(p);
  for (const auto& net : p.nets) {
    RouteCosts astar;
    RouteCosts dijkstra;
    dijkstra.use_astar = false;
    const auto pa = find_path(occ, {net.pins[0]}, {net.pins[1]}, net.id, astar);
    const auto pd = find_path(occ, {net.pins[0]}, {net.pins[1]}, net.id, dijkstra);
    ASSERT_EQ(pa.has_value(), pd.has_value());
    if (pa) {
      EXPECT_NEAR(pa->cost, pd->cost, 1e-9);
      EXPECT_LE(pa->expansions, pd->expansions);  // A* is never worse
    }
  }
}

TEST(Maze, OwnCellsAreFreeToReuse) {
  const auto p = empty_grid(10, 10);
  Occupancy occ(p);
  // Pre-claim a backbone for net 7.
  for (int x = 0; x < 10; ++x) occ.set({x, 5, 0}, 7);
  const auto path = find_path(occ, {{0, 5, 0}}, {{9, 5, 0}}, 7, {});
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->cost, 0.0);  // rides its own metal
}

TEST(Maze, OtherNetsBlock) {
  const auto p = empty_grid(10, 10);
  Occupancy occ(p);
  for (int y = 0; y < 10; ++y)
    for (int layer = 0; layer < 2; ++layer) occ.set({5, y, layer}, 3);
  EXPECT_FALSE(find_path(occ, {{0, 0, 0}}, {{9, 0, 0}}, 0, {}).has_value());
}

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

// A seeded maze-search instance on a small grid (2 layers unless told
// otherwise): random
// obstacles and foreign-net cells, a non-negative penalty field, 1-3
// sources owned by the searching net and 1-3 free targets. Targets are
// never the net's own cells, so the Manhattan bound stays admissible and
// A* must match Dijkstra's cost exactly.
constexpr int kSearchNet = 5;

struct SearchCase {
  Occupancy occ;
  std::vector<GridPoint> sources, targets;
  std::vector<double> extra;
  RouteCosts costs;
};

SearchCase random_search_case(util::Rng& rng, int w, int h, int layers = 2) {
  auto p = empty_grid(w, h, layers);
  for (auto& layer : p.blocked)
    for (std::size_t i = 0; i < layer.size(); ++i) layer[i] = rng.next_bool(0.2);
  SearchCase c{Occupancy(p), {}, {}, {}, {}};
  auto random_point = [&] {
    return GridPoint{static_cast<int>(rng.next_below(static_cast<std::uint64_t>(w))),
                     static_cast<int>(rng.next_below(static_cast<std::uint64_t>(h))),
                     static_cast<int>(rng.next_below(static_cast<std::uint64_t>(layers)))};
  };
  for (int k = 0; k < w * h / 8; ++k) {
    const auto g = random_point();
    if (c.occ.at(g) == Occupancy::kFree) c.occ.set(g, kSearchNet + 2);
  }
  const int n_sources = static_cast<int>(rng.next_in(1, 3));
  for (int k = 0; k < n_sources; ++k) {
    const auto g = random_point();
    c.occ.set(g, kSearchNet);
    c.sources.push_back(g);
  }
  const int n_targets = static_cast<int>(rng.next_in(1, 3));
  while (static_cast<int>(c.targets.size()) < n_targets) {
    const auto g = random_point();
    if (c.occ.at(g) == kSearchNet) continue;
    c.occ.set(g, Occupancy::kFree);
    c.targets.push_back(g);
  }
  c.extra.resize(static_cast<std::size_t>(layers * w * h));
  for (auto& e : c.extra) e = rng.next_bool(0.3) ? 0.0 : 4.0 * rng.next_double();
  c.costs.via = static_cast<double>(rng.next_in(1, 12));
  c.costs.bend = static_cast<double>(rng.next_in(0, 2));
  c.costs.preferred_directions = rng.next_bool();
  return c;
}

std::optional<PathResult> search(const SearchCase& c, bool astar,
                                 SearchArena* arena = nullptr) {
  RouteCosts costs = c.costs;
  costs.use_astar = astar;
  return arena ? find_path(*arena, c.occ, c.sources, c.targets, kSearchNet, costs, &c.extra)
               : find_path(c.occ, c.sources, c.targets, kSearchNet, costs, &c.extra);
}

void expect_same(const std::optional<PathResult>& a,
                 const std::optional<PathResult>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (!a) return;
  EXPECT_EQ(a->cells, b->cells);
  EXPECT_EQ(a->cost, b->cost);
  EXPECT_EQ(a->expansions, b->expansions);
}

// Checks the path is a contiguous in-bounds walk over passable cells from a
// source to a target, and that the costs along it add up to the reported
// cost.
void expect_valid_path(const SearchCase& c, const PathResult& r) {
  ASSERT_FALSE(r.cells.empty());
  auto contains = [](const std::vector<GridPoint>& v, const GridPoint& g) {
    return std::find(v.begin(), v.end(), g) != v.end();
  };
  EXPECT_TRUE(contains(c.sources, r.cells.front()));
  EXPECT_TRUE(contains(c.targets, r.cells.back()));
  const int w = c.occ.width(), h = c.occ.height();
  double cost = 0.0;
  int dir = 5;  // start: no bend on the first planar step
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const GridPoint& b = r.cells[i];
    ASSERT_TRUE(c.occ.in_bounds(b));
    const int v = c.occ.at(b);
    ASSERT_TRUE(v == Occupancy::kFree || v == kSearchNet);
    if (i == 0) continue;
    const GridPoint& a = r.cells[i - 1];
    ASSERT_EQ(std::abs(a.x - b.x) + std::abs(a.y - b.y) + std::abs(a.layer - b.layer), 1);
    const bool own = v == kSearchNet;
    const double extra = c.extra[static_cast<std::size_t>((b.layer * h + b.y) * w + b.x)];
    if (a.layer != b.layer) {
      if (!own) cost += c.costs.via + extra;
      dir = 4;
      continue;
    }
    const int d = b.x > a.x ? 0 : b.x < a.x ? 1 : b.y > a.y ? 2 : 3;
    double step = 0.0;
    if (!own) {
      step = c.costs.wire + extra;
      if (c.costs.preferred_directions && (a.layer == 0 ? d >= 2 : d < 2))
        step += c.costs.wrong_way;
    }
    if (dir < 4 && dir != d) step += c.costs.bend;
    cost += step;
    dir = d;
  }
  EXPECT_NEAR(cost, r.cost, 1e-9);
}

TEST(Maze, SeededSearchProperties) {
  util::Rng rng(2014);
  SearchArena shared;  // reused across every case and grid size
  int found = 0;
  for (int t = 0; t < 200; ++t) {
    SCOPED_TRACE(testing::Message() << "case " << t);
    const int w = static_cast<int>(rng.next_in(2, 14));
    const int h = static_cast<int>(rng.next_in(2, 14));
    const auto c = random_search_case(rng, w, h);
    const auto astar = search(c, true);
    const auto dijkstra = search(c, false);
    ASSERT_EQ(astar.has_value(), dijkstra.has_value());
    expect_same(astar, search(c, true, &shared));
    if (!astar) continue;
    ++found;
    EXPECT_NEAR(astar->cost, dijkstra->cost, 1e-9);
    expect_valid_path(c, *astar);
    expect_valid_path(c, *dijkstra);
  }
  EXPECT_GT(found, 100);  // the property is exercised, not vacuous
}

TEST(Maze, ArenaReuseAcrossGridSizes) {
  // A large search, a small one, then the large one again on one arena:
  // stale records or stamps from an earlier search must not leak into a
  // later one.
  util::Rng rng(7);
  const auto large = random_search_case(rng, 40, 36);
  const auto small = random_search_case(rng, 5, 4);
  SearchArena arena;
  const auto l1 = search(large, true, &arena);
  const auto s1 = search(small, true, &arena);
  const auto l2 = search(large, true, &arena);
  ASSERT_TRUE(l1.has_value());
  expect_same(l1, search(large, true));
  expect_same(s1, search(small, true));
  expect_same(l1, l2);
}

// Maze kernel golden: per seeded search, the path cells (as a digest),
// the cost's bit pattern and the expansion count
// (tests/data/golden/maze_digests.txt; L2L_UPDATE_GOLDEN=1 regenerates).
// The searches cover 1-, 2- and 3-layer grids, A* and Dijkstra, one
// target and several, a penalty field and none, and trees of the net's
// own cells beyond its sources (zero-cost steps, the side heap's keys),
// all on one reused arena. With RoutesMatchGolden it pins find_path byte
// for byte: the pop order decides every tie between equal-cost paths.
TEST(Maze, SearchesMatchGolden) {
  util::Rng rng(1396);
  SearchArena arena;
  std::string got;
  for (int t = 0; t < 80; ++t) {
    // Half the grids have 3 layers: only a middle layer pushes both vias.
    const int layers = t % 4 == 0 ? 1 : t % 4 == 1 ? 2 : 3;
    const int w = static_cast<int>(rng.next_in(2, 20));
    const int h = static_cast<int>(rng.next_in(2, 20));
    auto c = random_search_case(rng, w, h, layers);
    if (t % 2 == 1) {  // some free cells join the net's tree
      for (int k = 0; k < w * h * layers / 12; ++k) {
        const GridPoint g{static_cast<int>(rng.next_below(static_cast<std::uint64_t>(w))),
                          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(h))),
                          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(layers)))};
        if (c.occ.at(g) == Occupancy::kFree &&
            std::find(c.targets.begin(), c.targets.end(), g) == c.targets.end())
          c.occ.set(g, kSearchNet);
      }
    }
    for (const bool astar : {true, false}) {
      for (const bool field : {true, false}) {
        RouteCosts costs = c.costs;
        costs.use_astar = astar;
        const auto r = find_path(arena, c.occ, c.sources, c.targets, kSearchNet, costs,
                                 field ? &c.extra : nullptr);
        got += util::format("%02d %dx%dx%d %s %s targets=%zu ", t, w, h, layers,
                            astar ? "astar" : "dijkstra", field ? "field" : "plain",
                            c.targets.size());
        if (!r) {
          got += "none\n";
          continue;
        }
        std::string cells;
        for (const auto& g : r->cells) cells += util::format("%d,%d,%d;", g.x, g.y, g.layer);
        got += util::format("cost=%016llx expansions=%d cells=%zu %s\n",
                            static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(r->cost)),
                            r->expansions, r->cells.size(),
                            cache::digest_bytes(cells).hex().c_str());
      }
    }
  }

  expect_golden("maze_digests.txt", got);
}

// The multi-target bound against the breadth-first search of the whole
// unobstructed plane it replaced, at every plane position, on seeded
// target sets: scattered ones, ones pinned to the die's edges and corners,
// ones in a single row or column (one-row and one-column boxes), single
// targets, repeats, and targets off the grid, which both ignore.
TEST(Maze, NearestTargetBoundMatchesPlaneBfs) {
  auto bfs = [](const Occupancy& occ, const std::vector<GridPoint>& targets) {
    const int w = occ.width(), h = occ.height();
    std::vector<int> dist(static_cast<std::size_t>(w * h), -1);
    std::vector<int> frontier;
    for (const auto& t : targets)
      if (occ.in_bounds(t) && dist[static_cast<std::size_t>(t.y * w + t.x)] != 0) {
        dist[static_cast<std::size_t>(t.y * w + t.x)] = 0;
        frontier.push_back(t.y * w + t.x);
      }
    for (std::size_t k = 0; k < frontier.size(); ++k) {
      const int xy = frontier[k], x = xy % w, y = xy / w;
      const int nbr[4][2] = {{x + 1, y}, {x - 1, y}, {x, y + 1}, {x, y - 1}};
      for (const auto& [nx, ny] : nbr) {
        if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
        auto& d = dist[static_cast<std::size_t>(ny * w + nx)];
        if (d < 0) {
          d = dist[static_cast<std::size_t>(xy)] + 1;
          frontier.push_back(ny * w + nx);
        }
      }
    }
    return dist;
  };
  util::Rng rng(4141);
  NearestTargetBound bound;  // rebuilt for every case
  int shapes[5] = {0, 0, 0, 0, 0};
  for (int t = 0; t < 400; ++t) {
    SCOPED_TRACE(testing::Message() << "case " << t);
    const int w = static_cast<int>(rng.next_in(1, 24));
    const int h = static_cast<int>(rng.next_in(1, 24));
    const int layers = static_cast<int>(rng.next_in(1, 3));
    const Occupancy occ(empty_grid(w, h, layers));
    auto coord = [&](int n) { return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n))); };
    const int kind = t % 5;
    std::vector<GridPoint> targets;
    const int n = static_cast<int>(rng.next_in(1, 6));
    const int row = coord(h), col = coord(w);
    for (int k = 0; k < n; ++k) {
      switch (kind) {
        case 0:  // scattered
          targets.push_back({coord(w), coord(h), coord(layers)});
          break;
        case 1:  // on an edge or a corner of the die
          targets.push_back({rng.next_bool() ? (rng.next_bool() ? 0 : w - 1) : coord(w),
                             rng.next_bool() ? (rng.next_bool() ? 0 : h - 1) : coord(h),
                             coord(layers)});
          break;
        case 2:  // one row
          targets.push_back({coord(w), row, coord(layers)});
          break;
        case 3:  // one column
          targets.push_back({col, coord(h), coord(layers)});
          break;
        default:  // some off the grid, in x, y or layer
          targets.push_back(rng.next_bool(0.4)
                                ? GridPoint{coord(w), coord(h), coord(layers)}
                                : GridPoint{coord(w) + (rng.next_bool() ? w : 0),
                                            coord(h) - (rng.next_bool() ? h + 1 : 0),
                                            coord(layers) + (rng.next_bool() ? layers : 0)});
      }
    }
    const auto want = bfs(occ, targets);
    const bool any = std::any_of(want.begin(), want.end(), [](int d) { return d == 0; });
    ASSERT_EQ(bound.build(targets, occ), any);
    if (!any) continue;
    ++shapes[kind];
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        ASSERT_EQ(bound.at(x, y), want[static_cast<std::size_t>(y * w + x)])
            << "at " << x << "," << y;
  }
  for (const int s : shapes) EXPECT_GT(s, 40);  // every shape is exercised
}

TEST(Router, RoutesCleanProblemCompletely) {
  util::Rng rng(122);
  gen::RoutingGenOptions gopt;
  gopt.width = 32;
  gopt.height = 32;
  gopt.num_nets = 16;
  gopt.obstacle_fraction = 0.05;
  const auto p = gen::generate_routing(gopt, rng);
  const auto sol = route_all(p);
  EXPECT_EQ(sol.stats.failed, 0);
  EXPECT_EQ(sol.stats.routed, 16);
  for (const auto& net : sol.nets) {
    EXPECT_TRUE(net.routed);
    EXPECT_TRUE(connected(net)) << "net " << net.net_id;
  }
  // No two nets share a cell.
  std::set<GridPoint> all;
  for (const auto& net : sol.nets)
    for (const auto& c : net.cells)
      EXPECT_TRUE(all.insert(c).second) << "overlap at net " << net.net_id;
}

TEST(Router, MultiPinNetsFormTrees) {
  util::Rng rng(123);
  gen::RoutingGenOptions gopt;
  gopt.width = 32;
  gopt.height = 32;
  gopt.num_nets = 8;
  gopt.max_pins_per_net = 5;
  const auto p = gen::generate_routing(gopt, rng);
  const auto sol = route_all(p);
  for (std::size_t n = 0; n < p.nets.size(); ++n) {
    if (!sol.nets[n].routed) continue;
    EXPECT_TRUE(connected(sol.nets[n]));
    std::set<GridPoint> cells(sol.nets[n].cells.begin(), sol.nets[n].cells.end());
    for (const auto& pin : p.nets[n].pins)
      EXPECT_TRUE(cells.count(pin)) << "pin missing from net " << n;
  }
}

TEST(Router, RipUpRecoversCongestion) {
  // Dense crossing pattern: each net crosses six others in the centre.
  auto p = empty_grid(16, 16);
  // Nets crossing through the center from all sides.
  int id = 0;
  for (int k = 2; k < 14; k += 2) {
    p.nets.push_back({id++, {{0, k, 0}, {15, k, 0}}});
    p.nets.push_back({id++, {{k, 0, 0}, {k, 15, 0}}});
  }
  const auto sol = route_all(p);
  EXPECT_EQ(sol.stats.failed, 0) << "failed " << sol.stats.failed;
}

TEST(Router, NegotiationRoutesCongestedDieLegally) {
  // A deliberately congested die: negotiation must route some nets, each
  // connected, and no two nets may share a cell.
  util::Rng rng(99);
  gen::RoutingGenOptions gopt;
  gopt.width = gopt.height = 32;
  gopt.num_nets = 40;
  gopt.max_pins_per_net = 3;
  const auto p = gen::generate_routing(gopt, rng);
  RouterOptions nego;
  nego.max_negotiation_iterations = 15;
  const auto sol = route_all(p, nego);
  EXPECT_GT(sol.stats.routed, 0);
  std::set<GridPoint> all;
  for (const auto& net : sol.nets) {
    if (!net.routed) continue;
    EXPECT_TRUE(connected(net));
    for (const auto& c : net.cells) EXPECT_TRUE(all.insert(c).second);
  }
}

// Completion floor on the fig07_pnr_scale instances (same generator seeds
// and 12-iteration negotiation budget as the figure bench), so a change of
// search order or penalty schedule cannot silently lose nets. The floors
// are the routing gates: 29 of 32 and 57 of 64 legal nets.
TEST(Router, Fig07CompletionFloor) {
  for (const auto& [size, floor] : {std::pair{32, 29}, std::pair{64, 57}}) {
    util::Rng rng(137 + static_cast<std::uint64_t>(size));
    gen::RoutingGenOptions gopt;
    gopt.width = gopt.height = size;
    gopt.num_nets = size;
    gopt.max_pins_per_net = 3;
    const auto p = gen::generate_routing(gopt, rng);
    RouterOptions opt;
    opt.max_negotiation_iterations = 12;
    const auto g = grader::grade_routing(p, route_all(p, opt));
    EXPECT_GE(g.legal_nets, floor) << size << "x" << size;
  }
}

// Quality floor of the stall sweep, which re-routes only the nets near
// overused cells: the perf_route negotiated instance still routes every
// net, and the 32x32/32-net/12-iteration family (seeds 100-139) keeps the
// legal-net total of the full-sweep router it replaced.
TEST(Router, StallEscapeQualityFloor) {
  auto problem = [](int size, int nets, std::uint64_t seed) {
    util::Rng rng(seed);
    gen::RoutingGenOptions gopt;
    gopt.width = gopt.height = size;
    gopt.num_nets = nets;
    gopt.max_pins_per_net = 3;
    return gen::generate_routing(gopt, rng);
  };
  const auto p = problem(48, 40, 25);
  RouterOptions opt;
  opt.max_negotiation_iterations = 40;
  EXPECT_EQ(grader::grade_routing(p, route_all(p, opt)).legal_nets, 40);

  opt.max_negotiation_iterations = 12;
  int legal = 0;
  for (std::uint64_t seed = 100; seed <= 139; ++seed) {
    const auto f = problem(32, 32, seed);
    legal += grader::grade_routing(f, route_all(f, opt)).legal_nets;
  }
  EXPECT_GE(legal, 1154);
}

// A stall sweep rips up only the nets near an overused cell. Two nets
// must squeeze through a one-cell gap out of a walled corner pocket, so
// the gap stays overused after the first iteration; a third net runs far
// from the corner. With a 2-iteration budget the second iteration is a
// stall sweep: it must leave the far net out of its rip-up set, so the
// far net keeps the wires the first iteration gave it.
TEST(Router, StallSweepRipsUpOnlyNetsNearOverusedCells) {
  auto p = empty_grid(20, 20);
  auto block = [&](int x, int y, int layer) {
    p.blocked[static_cast<std::size_t>(layer)]
             [static_cast<std::size_t>(y) * 20 + static_cast<std::size_t>(x)] = true;
  };
  for (int layer = 0; layer < 2; ++layer)
    for (int k = 0; k <= 4; ++k) {
      if (!(k == 1 && layer == 0)) block(4, k, layer);  // the gap: (4, 1, 0)
      block(k, 4, layer);
    }
  p.nets.push_back({0, {{0, 0, 0}, {8, 0, 0}}});
  p.nets.push_back({1, {{0, 2, 0}, {8, 2, 0}}});
  p.nets.push_back({2, {{12, 15, 0}, {18, 15, 0}}});

  RouterOptions one;
  one.max_negotiation_iterations = 1;
  const auto first = route_all(p, one);
  ASSERT_TRUE(first.nets[2].routed);

  obs::set_enabled(true);
  obs::Registry::global().reset();
  RouterOptions two;
  two.max_negotiation_iterations = 2;
  const auto sol = route_all(p, two);
  const auto snap = obs::Registry::global().snapshot();
  obs::Registry::global().reset();

  const auto it = snap.histograms.find("route.ripup_set_size");
  ASSERT_NE(it, snap.histograms.end());
  ASSERT_EQ(it->second.count, 2);
  // The first iteration routes every net (none has a route yet).
  const std::int64_t sweep = it->second.sum - static_cast<std::int64_t>(p.nets.size());
  EXPECT_GT(sweep, 0);
  EXPECT_LT(sweep, static_cast<std::int64_t>(p.nets.size()));
  ASSERT_TRUE(sol.nets[2].routed);
  EXPECT_EQ(sol.nets[2].cells, first.nets[2].cells);
  // The gap admits one net, so one of the pocket nets ends unrouted.
  EXPECT_EQ(sol.stats.routed, 2);
}

// count_vias against the plain set count it replaced: (x, y) positions on
// layer 0 that any other layer also holds, each counted once. The merge
// walk must agree on routed_net's sorted cells, on shuffled ones, on
// repeated cells and on dies with more than two layers.
TEST(Router, CountViasMatchesTheSetCount) {
  auto set_count = [](const NetRoute& net) {
    std::set<std::pair<int, int>> layer0, upper;
    for (const auto& c : net.cells) (c.layer == 0 ? layer0 : upper).insert({c.x, c.y});
    int vias = 0;
    for (const auto& xy : layer0) vias += static_cast<int>(upper.count(xy));
    return vias;
  };
  util::Rng rng(2026);
  int with_vias = 0;
  for (int t = 0; t < 400; ++t) {
    SCOPED_TRACE(testing::Message() << "case " << t);
    const int layers = 2 + t / 3 % 2;  // each cell order on 2 and on 3 layers
    const int side = static_cast<int>(rng.next_in(1, 6));
    NetRoute net;
    for (auto k = rng.next_below(30); k > 0; --k)
      net.cells.push_back({static_cast<int>(rng.next_below(static_cast<std::uint64_t>(side))),
                           static_cast<int>(rng.next_below(static_cast<std::uint64_t>(side))),
                           static_cast<int>(rng.next_below(static_cast<std::uint64_t>(layers)))});
    switch (t % 3) {
      case 0:  // routed_net's form: sorted, each cell once
        std::sort(net.cells.begin(), net.cells.end());
        net.cells.erase(std::unique(net.cells.begin(), net.cells.end()), net.cells.end());
        break;
      case 1:  // sorted, repeats kept
        std::sort(net.cells.begin(), net.cells.end());
        break;
      default:  // as drawn: unsorted, repeats kept
        break;
    }
    const int want = set_count(net);
    EXPECT_EQ(count_vias(net), want);
    with_vias += want > 0;
  }
  EXPECT_GT(with_vias, 100);  // the walk's match path is exercised
}

// A net's repair state as route_all hands it to repair_tree: the net's
// pins reserved in the occupancy grid, a zero penalty field, no other
// wire on any point, and an all -1 slot map.
struct RepairCase {
  gen::RoutingProblem p;
  Occupancy occ;
  std::vector<double> field;
  std::vector<int> usage;
  std::vector<std::int32_t> slot;

  explicit RepairCase(gen::RoutingProblem problem)
      : p(std::move(problem)),
        occ(p),
        field(static_cast<std::size_t>(p.width * p.height * p.num_layers), 0.0),
        usage(field.size(), 0),
        slot(field.size(), -1) {
    for (const auto& net : p.nets)
      for (const auto& pin : net.pins) occ.set(pin, net.id);
  }
  /// Another net's wire on `g`, priced like a contested point.
  void contest(const GridPoint& g) {
    usage[occ.index(g)] = 1;
    field[occ.index(g)] = 50.0;
  }
  std::vector<GridPoint> repair(std::size_t n, const std::vector<GridPoint>& old_wires,
                                long long& expansions) {
    SearchArena arena;
    std::vector<GridPoint> wires;
    EXPECT_TRUE(repair_tree(arena, p.nets[n], occ, RouteCosts{}, field, usage, old_wires,
                            slot, wires, expansions));
    return wires;
  }
  /// The net's pins plus `wires`, as the router reports a route.
  NetRoute route(std::size_t n, const std::vector<GridPoint>& wires) const {
    NetRoute r;
    r.net_id = p.nets[n].id;
    r.routed = true;
    r.cells = p.nets[n].pins;
    r.cells.insert(r.cells.end(), wires.begin(), wires.end());
    return r;
  }
  /// repair_tree leaves the grid and its scratch as it found them.
  void expect_restored() const {
    Occupancy fresh(p);
    for (const auto& net : p.nets)
      for (const auto& pin : net.pins) fresh.set(pin, net.id);
    for (std::size_t i = 0; i < field.size(); ++i) {
      ASSERT_EQ(occ.at(i), fresh.at(i)) << "point " << i;
      ASSERT_EQ(slot[i], -1) << "point " << i;
    }
  }
};

// Is every wire of the route on a path between two of its pins: no wire
// cell has fewer than two neighbours in the route?
bool no_dangling_wire(const NetRoute& net, const std::vector<GridPoint>& pins) {
  const std::set<GridPoint> cells(net.cells.begin(), net.cells.end());
  const std::set<GridPoint> pin_set(pins.begin(), pins.end());
  for (const auto& c : cells) {
    if (pin_set.count(c)) continue;
    const GridPoint nbrs[6] = {{c.x + 1, c.y, c.layer}, {c.x - 1, c.y, c.layer},
                               {c.x, c.y + 1, c.layer}, {c.x, c.y - 1, c.layer},
                               {c.x, c.y, c.layer + 1}, {c.x, c.y, c.layer - 1}};
    int degree = 0;
    for (const auto& g : nbrs) degree += static_cast<int>(cells.count(g));
    if (degree < 2) return false;
  }
  return true;
}

// One contested point in the middle of a long two-pin wire: the wire more
// than kRepairRadius steps from it survives in place and in order, the
// contested point is left, and the pins stay connected through a search
// that only spans the gap.
TEST(Repair, KeepsTheWireFarFromAContestedPoint) {
  auto p = empty_grid(40, 9);
  p.nets.push_back({0, {{2, 4, 0}, {37, 4, 0}}});
  RepairCase rc(p);
  std::vector<GridPoint> old_wires;
  for (int x = 3; x <= 36; ++x) old_wires.push_back({x, 4, 0});
  const GridPoint hot{19, 4, 0};
  rc.contest(hot);
  long long expansions = 0;
  const auto wires = rc.repair(0, old_wires, expansions);
  rc.expect_restored();

  auto far = [&](const GridPoint& g) { return std::abs(g.x - hot.x) > kRepairRadius; };
  std::vector<GridPoint> want, got;
  std::copy_if(old_wires.begin(), old_wires.end(), std::back_inserter(want), far);
  std::copy_if(wires.begin(), wires.end(), std::back_inserter(got), far);
  // The kept wires lead, in their old order; any new far wire follows.
  ASSERT_GE(got.size(), want.size());
  EXPECT_TRUE(std::equal(want.begin(), want.end(), got.begin()));
  EXPECT_EQ(std::count(wires.begin(), wires.end(), hot), 0);
  const auto r = rc.route(0, wires);
  EXPECT_TRUE(connected(r));
  EXPECT_TRUE(no_dangling_wire(r, p.nets[0].pins));
  EXPECT_GT(expansions, 0);
  // The search spans the 13-point gap, not the 35-point net.
  EXPECT_LT(expansions, 200);
}

// The walk stops at an uncontested Steiner junction: on a T-shaped
// three-pin tree contested 3 steps from its junction, every wire beyond
// the junction survives, even the wire within kRepairRadius steps of the
// contested point. It also stops at a pin: the branch past the contested
// point, which ends at a pin 5 steps away, goes whole.
TEST(Repair, StopsAtJunctionsAndPins) {
  auto p = empty_grid(24, 16);
  p.nets.push_back({0, {{2, 5, 0}, {20, 5, 0}, {11, 12, 0}}});
  RepairCase rc(p);
  std::vector<GridPoint> old_wires;
  for (int x = 3; x <= 19; ++x) old_wires.push_back({x, 5, 0});
  for (int y = 6; y <= 11; ++y) old_wires.push_back({11, y, 0});
  rc.contest({14, 5, 0});
  long long expansions = 0;
  const auto wires = rc.repair(0, old_wires, expansions);
  rc.expect_restored();
  const std::set<GridPoint> kept(wires.begin(), wires.end());
  for (int x = 3; x <= 11; ++x) EXPECT_TRUE(kept.count({x, 5, 0})) << "x " << x;
  for (int y = 6; y <= 11; ++y) EXPECT_TRUE(kept.count({11, y, 0})) << "y " << y;
  EXPECT_FALSE(kept.count({14, 5, 0}));
  const auto r = rc.route(0, wires);
  EXPECT_TRUE(connected(r));
  EXPECT_TRUE(no_dangling_wire(r, p.nets[0].pins));
}

// Seeded repairs of the trees route_all builds, each contested at 1-4
// random wire points: every repaired tree is connected over all its
// pins, keeps no wire that reaches no pin, and leaves the grid and the
// scratch as it found them. Then, at the router level, every routed net
// of seeded congested dies whose tails repair grades legal.
TEST(Repair, SeededRepairsAreConnectedTreesAndGradeLegal) {
  util::Rng rng(2025);
  int repaired = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    util::Rng grng(300 + seed);
    gen::RoutingGenOptions gopt;
    gopt.width = gopt.height = 24;
    gopt.num_nets = 12;
    gopt.max_pins_per_net = 4;
    const auto p = gen::generate_routing(gopt, grng);
    const auto sol = route_all(p);
    RepairCase rc(p);
    for (std::size_t n = 0; n < p.nets.size(); ++n) {
      if (!sol.nets[n].routed) continue;
      SCOPED_TRACE(testing::Message() << "seed " << seed << " net " << n);
      const std::set<GridPoint> pins(p.nets[n].pins.begin(), p.nets[n].pins.end());
      std::vector<GridPoint> old_wires;
      for (const auto& c : sol.nets[n].cells)
        if (!pins.count(c)) old_wires.push_back(c);
      if (old_wires.empty()) continue;
      std::vector<GridPoint> hot;
      for (auto k = rng.next_in(1, 4); k > 0; --k)
        hot.push_back(old_wires[rng.next_below(old_wires.size())]);
      for (const auto& g : hot) rc.contest(g);
      long long expansions = 0;
      const auto wires = rc.repair(n, old_wires, expansions);
      rc.expect_restored();
      for (const auto& g : hot) {
        rc.usage[rc.occ.index(g)] = 0;
        rc.field[rc.occ.index(g)] = 0.0;
      }
      const auto r = rc.route(n, wires);
      EXPECT_TRUE(connected(r));
      EXPECT_TRUE(no_dangling_wire(r, p.nets[n].pins));
      ++repaired;
    }
  }
  EXPECT_GT(repaired, 40);

  int repairs = 0;
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    util::Rng grng(seed);
    gen::RoutingGenOptions gopt;
    gopt.width = gopt.height = 32;
    gopt.num_nets = 32;
    gopt.max_pins_per_net = 3;
    const auto p = gen::generate_routing(gopt, grng);
    RouterOptions opt;
    opt.max_negotiation_iterations = 12;
    const auto sol = route_all(p, opt);
    repairs += sol.stats.repairs;
    EXPECT_LE(sol.stats.repair_expansions, sol.stats.expansions);
    const auto g = grader::grade_routing(p, sol);
    EXPECT_EQ(g.legal_nets, sol.stats.routed) << "seed " << seed;
    for (std::size_t n = 0; n < p.nets.size(); ++n) {
      if (!sol.nets[n].routed) continue;
      EXPECT_TRUE(connected(sol.nets[n])) << "seed " << seed << " net " << n;
      EXPECT_TRUE(no_dangling_wire(sol.nets[n], p.nets[n].pins))
          << "seed " << seed << " net " << n;
    }
  }
  EXPECT_GT(repairs, 50);  // the tails repair, so the property is not vacuous
}

// Only the tail of a routed net repairs. On the walled corner pocket of
// StallSweepRipsUpOnlyNetsNearOverusedCells: the first iteration routes
// every net (none has a route) and repairs none; with a 2-iteration
// budget both iterations are stall sweeps, which re-route routed nets
// whole and repair none; with 4, iteration 1 is the tail and repairs,
// and the two closing sweeps add no repair to it.
TEST(Repair, SweepsAndUnroutedNetsGrowWholeTrees) {
  auto p = empty_grid(20, 20);
  auto block = [&](int x, int y, int layer) {
    p.blocked[static_cast<std::size_t>(layer)]
             [static_cast<std::size_t>(y) * 20 + static_cast<std::size_t>(x)] = true;
  };
  for (int layer = 0; layer < 2; ++layer)
    for (int k = 0; k <= 4; ++k) {
      if (!(k == 1 && layer == 0)) block(4, k, layer);  // the gap: (4, 1, 0)
      block(k, 4, layer);
    }
  p.nets.push_back({0, {{0, 0, 0}, {8, 0, 0}}});
  p.nets.push_back({1, {{0, 2, 0}, {8, 2, 0}}});
  p.nets.push_back({2, {{12, 15, 0}, {18, 15, 0}}});
  auto run = [&](int iterations, std::int64_t steps) {
    RouterOptions opt;
    opt.max_negotiation_iterations = iterations;
    auto budget = util::Budget::with_step_limit(steps);
    if (steps >= 0) opt.budget = &budget;
    return route_all(p, opt).stats;
  };
  const auto first = run(40, 2);  // the budget trips as its last step is taken
  EXPECT_EQ(first.negotiation_iterations, 1);
  EXPECT_EQ(first.repairs, 0);
  EXPECT_GT(first.expansions, 0);

  const auto sweeps = run(2, -1);
  EXPECT_EQ(sweeps.negotiation_iterations, 2);
  EXPECT_EQ(sweeps.repairs, 0);
  EXPECT_EQ(sweeps.repair_expansions, 0);

  const auto tail = run(4, 3);
  const auto closed = run(4, -1);
  EXPECT_GT(tail.repairs, 0);
  EXPECT_GT(tail.repair_expansions, 0);
  EXPECT_GT(closed.negotiation_iterations, 2);
  EXPECT_EQ(closed.repairs, tail.repairs);
  EXPECT_EQ(closed.repair_expansions, tail.repair_expansions);
  EXPECT_GT(closed.expansions, tail.expansions);  // the sweeps searched
}

// Router digest golden: per instance and thread count, the digest of the
// solution text a grader reads, every RouteStats field and the status code
// (tests/data/golden/router_digests.txt; L2L_UPDATE_GOLDEN=1 regenerates).
// The instances reach every path of the negotiation: rip-up sets over 16
// nets (parallel chunks), the live tail of 16 or fewer with its branch
// repairs, stall sweeps,
// 1-, 2- and 12-iteration budgets, a step-limited budget cut, dies that end
// unconverged (finalize re-routes the contested nets) and a net walled in
// by obstacles, which no iteration can reach.
TEST(Router, RoutesMatchGolden) {
  auto problem = [](int size, int nets, int pins, std::uint64_t seed) {
    util::Rng rng(seed);
    gen::RoutingGenOptions gopt;
    gopt.width = gopt.height = size;
    gopt.num_nets = nets;
    gopt.max_pins_per_net = pins;
    return gen::generate_routing(gopt, rng);
  };
  // Wall in net 0's first pin: every free neighbour on its layer and the
  // cell above it become obstacles.
  auto walled = [](gen::RoutingProblem p) {
    const GridPoint pin = p.nets[0].pins[0];
    std::set<GridPoint> pins;
    for (const auto& net : p.nets) pins.insert(net.pins.begin(), net.pins.end());
    const GridPoint around[5] = {{pin.x + 1, pin.y, pin.layer},
                                 {pin.x - 1, pin.y, pin.layer},
                                 {pin.x, pin.y + 1, pin.layer},
                                 {pin.x, pin.y - 1, pin.layer},
                                 {pin.x, pin.y, 1 - pin.layer}};
    for (const auto& c : around)
      if (p.in_bounds(c) && !pins.count(c))
        p.blocked[static_cast<std::size_t>(c.layer)]
                 [static_cast<std::size_t>(c.y * p.width + c.x)] = true;
    return p;
  };
  struct Case {
    const char* name;
    gen::RoutingProblem p;
    int iterations;
    std::int64_t step_limit;  // < 0: no budget
  };
  const Case cases[] = {
      {"clean32_i40", problem(32, 16, 2, 122), 40, -1},
      {"sparse64_i40", problem(64, 30, 2, 5), 40, -1},
      {"dense48_i40", problem(48, 40, 3, 25), 40, -1},
      {"fig07_32_i12", problem(32, 32, 3, 169), 12, -1},
      {"fig07_64_i12", problem(64, 64, 3, 201), 12, -1},
      {"congested32_i1", problem(32, 40, 3, 99), 1, -1},
      {"congested32_i2", problem(32, 40, 3, 99), 2, -1},
      {"congested32_i12", problem(32, 40, 3, 99), 12, -1},
      {"crowded24_i3", problem(24, 40, 3, 11), 3, -1},
      {"multipin40_steps3", problem(40, 36, 4, 2026), 40, 3},
      {"walled32_i12", walled(problem(32, 24, 3, 7)), 12, -1},
      {"walled24_i12", walled(problem(24, 12, 2, 3)), 12, -1},
  };
  std::string got;
  for (const auto& c : cases) {
    for (const int threads : {1, 8}) {
      util::set_num_threads(threads);
      RouterOptions opt;
      opt.max_negotiation_iterations = c.iterations;
      auto budget = util::Budget::with_step_limit(c.step_limit);
      if (c.step_limit >= 0) opt.budget = &budget;
      const auto sol = route_all(c.p, opt);
      const auto& s = sol.stats;
      got += util::format(
          "%s t%d %s routed=%d failed=%d ripups=%d iterations=%d wire=%.17g "
          "vias=%d expansions=%lld repairs=%d repair_expansions=%lld status=%s\n",
          c.name, threads, cache::digest_bytes(write_solution(sol)).hex().c_str(),
          s.routed, s.failed, s.ripups, s.negotiation_iterations, s.total_wire,
          s.total_vias, s.expansions, s.repairs, s.repair_expansions,
          util::status_code_name(sol.status.code));
    }
  }
  util::set_num_threads(0);

  expect_golden("router_digests.txt", got);
}

TEST(Solution, WriteParseRoundTrip) {
  util::Rng rng(124);
  gen::RoutingGenOptions gopt;
  gopt.width = 16;
  gopt.height = 16;
  gopt.num_nets = 5;
  const auto p = gen::generate_routing(gopt, rng);
  const auto sol = route_all(p);
  const auto again = parse_solution(write_solution(sol));
  ASSERT_EQ(again.nets.size(), sol.nets.size());
  for (std::size_t n = 0; n < sol.nets.size(); ++n) {
    EXPECT_EQ(again.nets[n].net_id, sol.nets[n].net_id);
    EXPECT_EQ(again.nets[n].cells, sol.nets[n].cells);
  }
}

TEST(Solution, ParseErrors) {
  EXPECT_THROW(parse_solution(""), std::invalid_argument);
  EXPECT_THROW(parse_solution("1\n(0 0 0)\n"), std::invalid_argument);
  EXPECT_THROW(parse_solution("2\nnet 0\n!\n"), std::invalid_argument);
  EXPECT_THROW(parse_solution("1\nnet 0\n(1 2)\n!\n"), std::invalid_argument);
  EXPECT_THROW(parse_solution("1\nnet 0\nxyz\n!\n"), std::invalid_argument);
}

TEST(Solution, ProblemRoundTrip) {
  util::Rng rng(125);
  gen::RoutingGenOptions gopt;
  gopt.width = 16;
  gopt.height = 12;
  gopt.num_nets = 4;
  const auto p = gen::generate_routing(gopt, rng);
  const auto again = parse_problem(write_problem(p));
  EXPECT_EQ(again.width, p.width);
  EXPECT_EQ(again.height, p.height);
  EXPECT_EQ(again.blocked, p.blocked);
  ASSERT_EQ(again.nets.size(), p.nets.size());
  for (std::size_t n = 0; n < p.nets.size(); ++n)
    EXPECT_EQ(again.nets[n].pins, p.nets[n].pins);
}

TEST(Solution, AsciiRenderShowsNetsAndPins) {
  auto p = empty_grid(8, 8);
  p.nets.push_back({0, {{0, 0, 0}, {7, 0, 0}}});
  const auto sol = route_all(p);
  const auto art = render_ascii(p, sol, 0);
  EXPECT_NE(art.find('*'), std::string::npos);
  EXPECT_NE(art.find('a'), std::string::npos);
}

// The Figure-6 unit tests of the MOOC router project: short wires in one
// layer, vertical segments, bends, obstacle detours -- run as a
// parameterized suite.
struct UnitCase {
  const char* name;
  GridPoint from, to;
  int wall_x;  // -1 = none; else vertical wall on layer 0 with top gap
};

// Print the case by its endpoints. gtest's default dumps the struct's raw
// bytes -- the address of `name` and the padding -- and that text lands in
// the ctest test name, so it changed with every build.
void PrintTo(const UnitCase& tc, std::ostream* os) {
  *os << '(' << tc.from.x << ',' << tc.from.y << ',' << tc.from.layer << ")->("
      << tc.to.x << ',' << tc.to.y << ',' << tc.to.layer << ')';
  if (tc.wall_x >= 0) *os << " wall@x=" << tc.wall_x;
}

class RouterUnitTests : public ::testing::TestWithParam<UnitCase> {};

TEST_P(RouterUnitTests, RoutesAndVerifies) {
  const auto& tc = GetParam();
  auto p = empty_grid(12, 12);
  if (tc.wall_x >= 0)
    for (int y = 0; y < 11; ++y)
      p.blocked[0][static_cast<std::size_t>(y) * 12 +
                   static_cast<std::size_t>(tc.wall_x)] = true;
  p.nets.push_back({0, {tc.from, tc.to}});
  const auto sol = route_all(p);
  ASSERT_TRUE(sol.nets[0].routed) << tc.name;
  EXPECT_TRUE(connected(sol.nets[0])) << tc.name;
  for (const auto& c : sol.nets[0].cells) EXPECT_FALSE(p.is_blocked(c));
}

INSTANTIATE_TEST_SUITE_P(
    Fig6, RouterUnitTests,
    ::testing::Values(
        UnitCase{"short_horizontal", {1, 1, 0}, {4, 1, 0}, -1},
        UnitCase{"short_vertical", {2, 1, 0}, {2, 6, 0}, -1},
        UnitCase{"single_bend", {1, 1, 0}, {8, 8, 0}, -1},
        UnitCase{"cross_layer", {1, 1, 0}, {8, 8, 1}, -1},
        UnitCase{"around_obstacle", {1, 1, 0}, {10, 1, 0}, 6},
        UnitCase{"adjacent_cells", {5, 5, 0}, {5, 6, 0}, -1}),
    [](const ::testing::TestParamInfo<UnitCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace l2l::route
