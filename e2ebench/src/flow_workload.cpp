#include "flow_workload.hpp"

#include "cache/cache.hpp"
#include "flow/flow.hpp"
#include "gen/function_gen.hpp"
#include "grader/route_grader.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace e2e {

using namespace l2l;

std::vector<FlowDesign> make_flow_designs(std::uint64_t seed,
                                          const FlowSize& size) {
  util::Rng rng(seed);
  // Router time on random netlists of one size varies fivefold, so the
  // medium designs are a fixed multiset of structured circuits (the seed
  // orders them) and the seed's own netlists are the small random ones.
  // Slot i of each list picks its design from i, so a set of any size
  // has the same mix.
  auto medium = [](int i) -> FlowDesign {
    switch (i % 4) {
      case 0: return {"adder3", gen::adder_network(3)};
      case 1: return {"adder4", gen::adder_network(4)};
      case 2: return {"mux5", gen::mux_network(5)};
      default: return {"parity80", gen::parity_network(80)};
    }
  };
  auto small = [&rng](int i) -> FlowDesign {
    switch (i % 4) {
      case 0: {
        const int sel = 2 + (i / 4) % 3;
        return {util::format("mux%d", sel), gen::mux_network(sel)};
      }
      case 1: {
        const int bits = 8 + 4 * ((i / 4) % 8);
        return {util::format("parity%d", bits), gen::parity_network(bits)};
      }
      case 2: {
        const int bits = 1 + (i / 4) % 2;
        return {util::format("adder%d", bits), gen::adder_network(bits)};
      }
      default: {
        // Every node an output, so synthesis keeps the whole netlist.
        gen::NetworkGenOptions opt;
        opt.num_inputs = 8;
        opt.num_nodes = 8 + static_cast<int>(rng.next_below(7));
        opt.num_outputs = opt.num_nodes;
        return {util::format("random%d_%d", opt.num_nodes, i),
                gen::random_network(opt, rng)};
      }
    }
  };
  std::vector<FlowDesign> smalls, mediums;
  for (int i = 0; i < size.small; ++i) smalls.push_back(small(i));
  for (int i = 0; i < size.medium; ++i) mediums.push_back(medium(i));
  rng.shuffle(smalls);
  rng.shuffle(mediums);
  // Mediums spread evenly through the run: one after every
  // small / medium smalls.
  std::vector<FlowDesign> out;
  const std::size_t stride =
      mediums.empty() ? smalls.size() + 1 : smalls.size() / mediums.size() + 1;
  std::size_t s = 0, m = 0;
  while (s < smalls.size() || m < mediums.size()) {
    for (std::size_t k = 1; k < stride && s < smalls.size(); ++k)
      out.push_back(std::move(smalls[s++]));
    if (m < mediums.size()) out.push_back(std::move(mediums[m++]));
  }
  return out;
}

FlowPass run_flow_pass(const std::vector<FlowDesign>& designs, bool traced) {
  cold_start();
  obs::set_enabled(traced);
  FlowPass pass;
  for (const auto& d : designs) {
    cache::Cache::global().clear();  // each design runs cold
    const auto t0 = Clock::now();
    const flow::FlowResult res = flow::run_flow(d.net);
    const double s = seconds_since(t0);
    pass.wall_s += s;
    pass.latency_ms.push_back(s * 1e3);
    const auto& stats = res.routing.stats;
    pass.unrouted_nets += stats.failed;
    pass.wirelength += stats.total_wire;
    bool ok = res.status.ok();
    if (ok) {
      // Every net the router claims must pass the project's route grader.
      const auto grade =
          grader::grade_routing(res.routing_problem, res.routing);
      ok = grade.legal_nets == stats.routed;
    }
    if (!ok) ++pass.failed;
  }
  if (!traced) return pass;

  auto span_ms = [](const char* name) {
    std::int64_t us = 0;
    for (const auto& [b, e] : span_intervals(name)) us += e - b;
    return static_cast<double>(us) / 1e3;
  };
  auto& l = pass.layers;
  l["layer.mls.ms"] = span_ms("flow.stage.synthesis");
  l["layer.techmap.ms"] = span_ms("flow.stage.mapping");
  l["layer.place.ms"] = span_ms("flow.stage.placement");
  l["layer.route.ms"] = span_ms("flow.stage.routing");
  l["layer.timing.ms"] = span_ms("flow.stage.timing");
  l["layer.unattributed_ms"] =
      pass.wall_s * 1e3 - (l["layer.mls.ms"] + l["layer.techmap.ms"] +
                           l["layer.place.ms"] + l["layer.route.ms"] +
                           l["layer.timing.ms"]);
  const auto snap = obs::Registry::global().snapshot();
  const auto expansions = counter(snap, "route.expansions");
  const auto routed = counter(snap, "route.nets_routed");
  l["route.expansions"] = static_cast<double>(expansions);
  l["route.negotiation_iterations"] =
      static_cast<double>(counter(snap, "route.negotiation_iterations"));
  l["route.ripups"] = static_cast<double>(counter(snap, "route.ripups"));
  l["route.expansions_per_routed_net"] =
      routed > 0 ? static_cast<double>(expansions) / static_cast<double>(routed)
                 : 0.0;
  l["place.cg_iterations"] =
      static_cast<double>(counter(snap, "place.cg_iterations"));
  l["obs.trace.dropped"] =
      static_cast<double>(counter(snap, "obs.trace.dropped"));
  return pass;
}

}  // namespace e2e
