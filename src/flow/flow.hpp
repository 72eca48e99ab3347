#pragma once
// The complete "logic to layout" flow -- the course's arc in one call:
//
//   BLIF netlist
//     -> multi-level logic optimization        (Week 3-4)
//     -> technology mapping                    (Week 5)
//     -> placement (quadratic + legalization)  (Week 6)
//     -> 2-layer maze routing                  (Week 7)
//     -> static timing with Elmore wire delay  (Week 8)
//
// Gate placement/routing operate on a synthetic pin geometry derived from
// the mapped netlist (one cell per gate, one routing net per multi-fanout
// signal), closing the loop from logic to layout.

#include <string>

#include "gen/placement_gen.hpp"
#include "gen/routing_gen.hpp"
#include "network/network.hpp"
#include "place/legalize.hpp"
#include "route/router.hpp"
#include "techmap/mapper.hpp"
#include "timing/sta.hpp"
#include "util/budget.hpp"

namespace l2l::flow {

struct FlowOptions {
  bool optimize_logic = true;
  techmap::MapObjective objective = techmap::MapObjective::kArea;
  int grid_margin_percent = 100;  ///< extra sites beyond cell count
  int route_grid_per_site = 5;   ///< routing-grid resolution per site
  std::uint64_t seed = 1;
  /// Optional resource guard (not owned; must outlive run_flow), checked
  /// at every stage boundary and forwarded into the placer and router so
  /// the long-running stages stop mid-work too. On exhaustion run_flow
  /// returns the stages completed so far with FlowResult::status non-ok
  /// and stopped_stage naming the first stage that did not finish.
  const util::Budget* budget = nullptr;
};

struct FlowResult {
  // Synthesis.
  int literals_before = 0;
  int literals_after = 0;
  // Mapping.
  techmap::MapResult mapped;
  // Placement.
  gen::PlacementProblem placement_problem;
  place::Grid grid;
  place::GridPlacement placement;
  double hpwl = 0.0;
  // Routing.
  gen::RoutingProblem routing_problem;
  route::RouteSolution routing;
  // Timing.
  timing::TimingResult timing;
  double gate_delay = 0.0;   ///< STA with cell delays only
  double worst_wire_delay = 0.0;

  /// kOk when the flow ran to completion; otherwise why it stopped early
  /// (budget/deadline/cancellation, or kInternalError on an unexpected
  /// exception). Stages before stopped_stage hold valid results.
  util::Status status;
  std::string stopped_stage;  ///< first stage that did not finish

  std::string report() const;
};

/// Run the whole flow on a logic network. Never throws: resource-guard
/// trips and internal errors are reported via FlowResult::status with the
/// completed stages' results intact.
FlowResult run_flow(const network::Network& input, const FlowOptions& opt = {});

/// Certifies a completed flow result with the engines that check each
/// hand-off independently of the stage that produced it:
///   - the mapped netlist computes `input`'s function (SAT miter);
///   - the placement is legal on its grid;
///   - the route grader finds every problem net routed and legal;
///   - the routes are DRC clean, so no two nets short.
/// Returns ok, or kInvalidInput naming the first check that failed.
util::Status verify(const network::Network& input, const FlowResult& res);

}  // namespace l2l::flow
