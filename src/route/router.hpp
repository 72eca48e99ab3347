#pragma once
// Multi-net routing on the 2-layer grid by negotiated congestion
// (PathFinder-style). Wires may share cells, priced by growing present and
// history penalties. Each iteration re-routes a rip-up set, shortest pin
// span first: the unrouted nets and the losing sharers of each overused
// cell or, when the overflow stalls, every net near an overused cell. In
// the negotiation tail (small sets that are not stall sweeps) a routed
// net is repaired instead of re-routed: it keeps every wire away from its
// contested cells and one search per gap rejoins the rest
// (route/branch_repair.hpp). A final pass gives each cell one owner. The
// solution is bit-identical at any L2L_THREADS value.

#include <vector>

#include "route/maze.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"

namespace l2l::route {

struct NetRoute {
  int net_id = -1;
  bool routed = false;
  /// All grid cells owned by the net (pins included), forming a connected
  /// tree over its layers.
  std::vector<GridPoint> cells;
};

struct RouteStats {
  int routed = 0;
  int failed = 0;
  int ripups = 0;
  int negotiation_iterations = 0;  ///< iterations until congestion cleared
  double total_wire = 0.0;         ///< wire cells beyond the first per net
  int total_vias = 0;
  long long expansions = 0;
  int repairs = 0;                 ///< tail nets repaired in place of a re-route
  long long repair_expansions = 0; ///< the part of `expansions` those repairs took
};

struct RouterOptions {
  RouteCosts costs;
  /// Negotiation iterations before the final ownership pass; the last
  /// two are always stall sweeps.
  int max_negotiation_iterations = 40;
  /// Scale of the sharing penalty: iteration i prices each extra wire on
  /// a point at present_factor * max(i + 1, 1.6^i).
  double present_factor = 0.6;
  double history_increment = 3.0;  ///< added to each overused cell per iter
  /// Optional resource guard (not owned; must outlive route_all). Each
  /// negotiation iteration consumes one budget step; the deadline and
  /// cancellation token are polled at the same boundary. On exhaustion
  /// the router breaks to finalization and returns a partial solution
  /// (clean nets keep their routes) with RouteSolution::status explaining
  /// why. Step-limited runs stop at a deterministic iteration.
  const util::Budget* budget = nullptr;
};

struct RouteSolution {
  std::vector<NetRoute> nets;  ///< in problem net order
  RouteStats stats;
  util::Status status;  ///< non-ok when a resource guard cut routing short
};

/// Route every net of the problem.
RouteSolution route_all(const gen::RoutingProblem& p,
                        const RouterOptions& opt = {});

/// Count vias (adjacent same-x/y, different-layer pairs along the cell
/// list is not well defined for trees; this counts cells that appear on
/// both layers at the same (x, y)).
int count_vias(const NetRoute& net);

}  // namespace l2l::route
