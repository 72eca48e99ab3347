#include "flow/flow.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "api/mls.hpp"
#include "api/place.hpp"
#include "api/route.hpp"
#include "geom/drc.hpp"
#include "grader/route_grader.hpp"
#include "mls/script.hpp"
#include "network/blif.hpp"
#include "network/equivalence.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "timing/elmore.hpp"
#include "util/strings.hpp"

namespace l2l::flow {

using network::Network;
using network::NodeId;
using network::NodeType;

std::string FlowResult::report() const {
  std::string out;
  out += util::format("synthesis: %d -> %d literals\n", literals_before,
                      literals_after);
  out += util::format("mapping:   %d gates, area %.1f, gate delay %.2f\n",
                      static_cast<int>(mapped.gates.size()), mapped.total_area,
                      mapped.critical_delay);
  out += util::format("placement: %d cells on %dx%d grid, HPWL %.1f\n",
                      placement_problem.num_cells, grid.rows,
                      grid.sites_per_row, hpwl);
  out += util::format("routing:   %d/%d nets, wire %d cells, %d vias\n",
                      routing.stats.routed,
                      routing.stats.routed + routing.stats.failed,
                      static_cast<int>(routing.stats.total_wire),
                      routing.stats.total_vias);
  out += util::format("timing:    critical %.2f (gates %.2f, worst wire %.2f)\n",
                      timing.critical_delay, gate_delay, worst_wire_delay);
  return out;
}

namespace {

/// Flow body. Fills `res` stage by stage; returns early (leaving `res`
/// partially filled and status set) when the resource guard trips at a
/// stage boundary. run_flow() wraps this with the exception barrier.
void run_flow_impl(const Network& input, const FlowOptions& opt,
                   FlowResult& res) {
  // One budget step per completed stage; the placer and router also carry
  // the guard internally so a deadline can stop them mid-stage.
  auto stage_ok = [&](const char* next_stage) {
    if (!opt.budget) return true;
    if (opt.budget->consume(1) && !opt.budget->exhausted()) return true;
    res.status = opt.budget->status();
    if (res.status.ok())
      res.status = util::Status::budget("flow stage budget exhausted");
    res.stopped_stage = next_stage;
    return false;
  };

  // Per-stage spans: emplace closes the previous stage's span before
  // opening the next, so the Chrome trace shows back-to-back intervals.
  std::optional<obs::ScopedSpan> stage_span;

  // ---- Logic optimization (Weeks 3-4) ----------------------------------
  if (!stage_ok("synthesis")) return;
  stage_span.emplace("flow.stage.synthesis", "flow");
  Network net = network::parse_blif(network::write_blif(input));
  res.literals_before = net.num_literals();
  if (opt.optimize_logic) {
    mls::ScriptOptions sopt;
    sopt.use_sdc_simplify = static_cast<int>(net.inputs().size()) <= 16;
    api::optimize_network(net, sopt);
  }
  res.literals_after = net.num_literals();
  obs::gauge_set("flow.literals_before", res.literals_before);
  obs::gauge_set("flow.literals_after", res.literals_after);

  // ---- Technology mapping (Week 5) --------------------------------------
  if (!stage_ok("mapping")) return;
  stage_span.emplace("flow.stage.mapping", "flow");
  const auto lib = techmap::default_library();
  res.mapped = techmap::technology_map(net, lib, opt.objective);
  const Network& mapped = res.mapped.netlist;

  // ---- Placement problem construction -----------------------------------
  // One movable cell per logic gate; one pad per primary input/output.
  auto& prob = res.placement_problem;
  std::map<NodeId, int> cell_of;
  for (NodeId id = 0; id < mapped.num_nodes(); ++id) {
    if (mapped.is_dead(id) || mapped.node(id).type != NodeType::kLogic)
      continue;
    cell_of[id] = prob.num_cells++;
  }
  const int side_cells = std::max(
      2, static_cast<int>(std::ceil(std::sqrt(
             prob.num_cells * (1.0 + opt.grid_margin_percent / 100.0)))));
  prob.width = prob.height = static_cast<double>(side_cells);

  std::map<NodeId, int> pad_of;  // PI/PO node -> pad index
  auto add_pad = [&](NodeId id, const std::string& name) {
    if (pad_of.count(id)) return pad_of[id];
    const int k = static_cast<int>(prob.pads.size());
    const double t =
        static_cast<double>(k) / std::max<std::size_t>(
                                     1, mapped.inputs().size() +
                                            mapped.outputs().size()) * 4.0;
    gen::Pad pad;
    pad.name = name;
    if (t < 1.0) {
      pad.x = t * prob.width;
      pad.y = 0;
    } else if (t < 2.0) {
      pad.x = prob.width;
      pad.y = (t - 1.0) * prob.height;
    } else if (t < 3.0) {
      pad.x = (3.0 - t) * prob.width;
      pad.y = prob.height;
    } else {
      pad.x = 0;
      pad.y = (4.0 - t) * prob.height;
    }
    prob.pads.push_back(pad);
    pad_of[id] = k;
    return k;
  };
  for (const NodeId id : mapped.inputs()) add_pad(id, mapped.node(id).name);

  // One net per driven signal with fanout.
  const auto fanouts = mapped.fanouts();
  const std::set<NodeId> output_set(mapped.outputs().begin(),
                                    mapped.outputs().end());
  std::vector<NodeId> net_driver;  // per placement/routing net
  for (NodeId id = 0; id < mapped.num_nodes(); ++id) {
    if (mapped.is_dead(id)) continue;
    const auto& fo = fanouts[static_cast<std::size_t>(id)];
    const bool is_out = output_set.count(id) > 0;
    if (fo.empty() && !is_out) continue;
    std::vector<gen::Pin> pins;
    if (mapped.node(id).type == NodeType::kInput)
      pins.push_back({true, pad_of.at(id)});
    else
      pins.push_back({false, cell_of.at(id)});
    std::set<int> sink_cells;
    for (const NodeId f : fo)
      if (cell_of.count(f)) sink_cells.insert(cell_of.at(f));
    for (const int c : sink_cells)
      if (!(pins.size() == 1 && !pins[0].is_pad && pins[0].index == c))
        pins.push_back({false, c});
    if (is_out) pins.push_back({true, add_pad(id, mapped.node(id).name + "_po")});
    if (pins.size() < 2) continue;
    prob.nets.push_back(std::move(pins));
    net_driver.push_back(id);
  }
  // Connect any orphan cells (e.g. constants) to pad 0.
  {
    std::vector<bool> used(static_cast<std::size_t>(prob.num_cells), false);
    for (const auto& n : prob.nets)
      for (const auto& p : n)
        if (!p.is_pad) used[static_cast<std::size_t>(p.index)] = true;
    if (prob.pads.empty()) add_pad(mapped.inputs().empty() ? 0 : mapped.inputs()[0], "p0");
    for (int c = 0; c < prob.num_cells; ++c)
      if (!used[static_cast<std::size_t>(c)]) {
        prob.nets.push_back({{false, c}, {true, 0}});
        net_driver.push_back(network::kNoNode);
      }
  }

  obs::gauge_set("flow.mapped_gates",
                 static_cast<std::int64_t>(res.mapped.gates.size()));

  // ---- Place (Week 6) ----------------------------------------------------
  if (!stage_ok("placement")) return;
  stage_span.emplace("flow.stage.placement", "flow");
  res.grid = place::Grid{side_cells, side_cells, prob.width, prob.height};
  api::PlaceRequest preq;
  preq.grid = res.grid;
  preq.options.budget = opt.budget;
  const auto placed = api::place_and_legalize(prob, preq);
  res.placement = placed.placement;
  res.hpwl = placed.hpwl;

  // ---- Routing problem construction (Week 7) -----------------------------
  if (!stage_ok("routing")) return;
  stage_span.emplace("flow.stage.routing", "flow");
  const int resolution = opt.route_grid_per_site;
  auto& rp = res.routing_problem;
  rp.width = side_cells * resolution;
  rp.height = side_cells * resolution;
  rp.num_layers = 2;
  rp.blocked.assign(2, std::vector<bool>(static_cast<std::size_t>(rp.width) *
                                             static_cast<std::size_t>(rp.height),
                                         false));
  // Pin slots: globally distinct routing-grid points inside each cell's
  // tile (or the pad's boundary tile). Tiles are clamped fully in bounds
  // so edge pads cannot collapse onto one point.
  std::map<std::pair<int, int>, int> tile_slots;  // tile -> next slot
  std::set<gen::GridPoint> used_points;
  auto pin_point = [&](const gen::Pin& pin) {
    int bx, by;
    if (pin.is_pad) {
      const auto& pad = prob.pads[static_cast<std::size_t>(pin.index)];
      bx = static_cast<int>(pad.x / prob.width * (rp.width - 1));
      by = static_cast<int>(pad.y / prob.height * (rp.height - 1));
    } else {
      bx = res.placement.col[static_cast<std::size_t>(pin.index)] * resolution;
      by = res.placement.row[static_cast<std::size_t>(pin.index)] * resolution;
    }
    bx = std::clamp(bx, 0, rp.width - resolution);
    by = std::clamp(by, 0, rp.height - resolution);
    auto& slot = tile_slots[{bx, by}];
    while (slot < resolution * resolution) {
      const gen::GridPoint p{bx + slot % resolution,
                             by + (slot / resolution) % resolution, 0};
      ++slot;
      if (used_points.insert(p).second) return p;
    }
    // Tile exhausted (pathological): scan the grid for any free point.
    for (int y = 0; y < rp.height; ++y)
      for (int x = 0; x < rp.width; ++x) {
        const gen::GridPoint p{x, y, 0};
        if (used_points.insert(p).second) return p;
      }
    throw std::logic_error("run_flow: routing grid out of pin sites");
  };
  for (std::size_t n = 0; n < prob.nets.size(); ++n) {
    gen::RoutingNet rn;
    rn.id = static_cast<int>(n);
    std::set<gen::GridPoint> unique_pins;
    for (const auto& pin : prob.nets[n]) unique_pins.insert(pin_point(pin));
    rn.pins.assign(unique_pins.begin(), unique_pins.end());
    if (rn.pins.size() >= 2) rp.nets.push_back(std::move(rn));
  }

  // ---- Route -------------------------------------------------------------
  api::RouteRequest rreq;
  rreq.options.budget = opt.budget;
  res.routing = api::route_nets(rp, rreq).solution;

  // ---- Timing (Week 8): gate delays + Elmore wire delay ------------------
  if (!stage_ok("timing")) return;
  stage_span.emplace("flow.stage.timing", "flow");
  auto delays = timing::cell_delays(mapped, lib);
  res.gate_delay = timing::analyze(mapped, delays).critical_delay;
  timing::WireParasitics par;
  par.r_per_unit = 0.05;
  par.c_per_unit = 0.1;
  par.via_r = 0.2;
  par.via_c = 0.05;
  par.sink_c = 0.2;
  for (std::size_t n = 0; n < rp.nets.size(); ++n) {
    const auto& sol = res.routing.nets[n];
    if (!sol.routed) continue;
    const auto rn_id = static_cast<std::size_t>(rp.nets[n].id);
    const NodeId driver = rn_id < net_driver.size() ? net_driver[rn_id]
                                                    : network::kNoNode;
    const auto& pins = rp.nets[n].pins;
    std::vector<gen::GridPoint> sinks(pins.begin() + 1, pins.end());
    const auto wire = timing::net_sink_delays(sol, pins[0], sinks, par);
    double worst = 0;
    for (const double d : wire) worst = std::max(worst, d);
    res.worst_wire_delay = std::max(res.worst_wire_delay, worst);
    if (driver != network::kNoNode)
      delays[static_cast<std::size_t>(driver)] += worst;
  }
  res.timing = timing::analyze(mapped, delays);
}

}  // namespace

FlowResult run_flow(const Network& input, const FlowOptions& opt) {
  obs::ScopedSpan span("flow.run", "flow");
  obs::count("flow.runs");
  FlowResult res;
  try {
    run_flow_impl(input, opt, res);
  } catch (const util::BudgetExceededError& e) {
    // A guard tripped inside a stage (e.g. a deadline mid-placement).
    if (res.status.ok()) res.status = e.status();
    if (res.stopped_stage.empty()) res.stopped_stage = "(mid-stage)";
  } catch (const std::exception& e) {
    res.status = util::Status::internal(e.what());
    if (res.stopped_stage.empty()) res.stopped_stage = "(mid-stage)";
  }
  return res;
}

util::Status verify(const Network& input, const FlowResult& res) {
  if (!res.status.ok())
    return util::Status::invalid("flow stopped at " + res.stopped_stage + ": " +
                                 res.status.message);
  try {
    const auto eq = network::check_equivalence(input, res.mapped.netlist,
                                               network::EquivalenceMethod::kSat);
    if (!eq.equivalent)
      return util::Status::invalid("mapped netlist differs from the input on output " +
                                   eq.failing_output);
  } catch (const std::invalid_argument& e) {
    return util::Status::invalid(std::string("mapped netlist interface: ") + e.what());
  }
  if (!place::is_legal(res.placement, res.grid))
    return util::Status::invalid("placement is not legal");
  const auto grade = grader::grade_routing(res.routing_problem, res.routing);
  const int nets = static_cast<int>(res.routing_problem.nets.size());
  if (grade.legal_nets != res.routing.stats.routed || res.routing.stats.routed != nets)
    return util::Status::invalid(
        util::format("routing: %d of %d nets legal, %d claimed routed", grade.legal_nets,
                     nets, res.routing.stats.routed));
  // No LVS: an open already fails the grader above, and a short the DRC.
  const auto drc = geom::check_drc(res.routing);
  if (!drc.clean()) return util::Status::invalid("routing " + drc.report());
  return util::Status::okay();
}

}  // namespace l2l::flow
