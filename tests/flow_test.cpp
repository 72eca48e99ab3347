#include <gtest/gtest.h>

#include "cubes/urp.hpp"
#include "flow/flow.hpp"
#include "gen/function_gen.hpp"
#include "geom/drc.hpp"
#include "geom/extract.hpp"
#include "grader/place_grader.hpp"
#include "grader/route_grader.hpp"
#include "network/equivalence.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace l2l::flow {
namespace {

TEST(Flow, AdderEndToEnd) {
  const auto net = gen::adder_network(3);
  const auto res = run_flow(net);

  // Synthesis did not grow the network.
  EXPECT_LE(res.literals_after, res.literals_before);
  // Mapping is functionally correct.
  EXPECT_TRUE(network::check_equivalence(net, res.mapped.netlist,
                                         network::EquivalenceMethod::kBdd)
                  .equivalent);
  // Placement is legal.
  EXPECT_TRUE(place::is_legal(res.placement, res.grid));
  EXPECT_GT(res.hpwl, 0.0);
  // Routing is fully legal by the auto-grader's standards.
  const auto rg = grader::grade_routing(res.routing_problem, res.routing);
  EXPECT_EQ(rg.legal_nets, rg.total_nets) << rg.report;
  // Timing includes both gate and wire contributions.
  EXPECT_GE(res.timing.critical_delay, res.gate_delay);
  EXPECT_GT(res.worst_wire_delay, 0.0);
  EXPECT_FALSE(res.report().empty());
  // Physical verification: DRC clean and LVS matches the intended nets.
  const auto drc = geom::check_drc(res.routing);
  EXPECT_TRUE(drc.clean()) << drc.report();
  const auto lvs = geom::lvs(res.routing_problem, res.routing);
  EXPECT_TRUE(lvs.clean) << lvs.report();
}

TEST(Flow, ParityTree) {
  const auto net = gen::parity_network(6);
  const auto res = run_flow(net);
  EXPECT_TRUE(network::check_equivalence(net, res.mapped.netlist,
                                         network::EquivalenceMethod::kSat)
                  .equivalent);
  const auto rg = grader::grade_routing(res.routing_problem, res.routing);
  EXPECT_EQ(rg.legal_nets, rg.total_nets) << rg.report;
}

TEST(Flow, DelayObjectiveNoWorseGateDelay) {
  const auto net = gen::adder_network(3);
  FlowOptions area;
  FlowOptions delay;
  delay.objective = techmap::MapObjective::kDelay;
  const auto ra = run_flow(net, area);
  const auto rd = run_flow(net, delay);
  EXPECT_LE(rd.mapped.critical_delay, ra.mapped.critical_delay + 1e-9);
}

TEST(Flow, RandomNetworksSurviveWholeFlow) {
  util::Rng rng(171);
  gen::NetworkGenOptions gopt;
  gopt.num_inputs = 6;
  gopt.num_nodes = 12;
  gopt.num_outputs = 3;
  for (int trial = 0; trial < 3; ++trial) {
    const auto net = gen::random_network(gopt, rng);
    const auto res = run_flow(net);
    EXPECT_TRUE(network::check_equivalence(net, res.mapped.netlist,
                                           network::EquivalenceMethod::kBdd)
                    .equivalent)
        << "trial " << trial;
    EXPECT_TRUE(place::is_legal(res.placement, res.grid));
    const auto rg = grader::grade_routing(res.routing_problem, res.routing);
    EXPECT_EQ(rg.legal_nets, rg.total_nets) << rg.report;
  }
}

TEST(Flow, OptimizationCanBeDisabled) {
  const auto net = gen::adder_network(2);
  FlowOptions opt;
  opt.optimize_logic = false;
  const auto res = run_flow(net, opt);
  EXPECT_EQ(res.literals_after, res.literals_before);
}

// The design mix of the end-to-end `flow` workload, built the same way:
// one of each structured medium design and `smalls` seeded small ones
// (muxes, parity trees, small adders, and random netlists whose every
// node is an output).
std::vector<std::pair<std::string, network::Network>> design_mix(std::uint64_t seed,
                                                                 int smalls) {
  util::Rng rng(seed);
  std::vector<std::pair<std::string, network::Network>> out;
  out.emplace_back("adder3", gen::adder_network(3));
  out.emplace_back("adder4", gen::adder_network(4));
  out.emplace_back("mux5", gen::mux_network(5));
  out.emplace_back("parity80", gen::parity_network(80));
  for (int i = 0; i < smalls; ++i) {
    switch (i % 4) {
      case 0:
        out.emplace_back(util::format("mux%d", 2 + (i / 4) % 3),
                         gen::mux_network(2 + (i / 4) % 3));
        break;
      case 1:
        out.emplace_back(util::format("parity%d", 8 + 4 * ((i / 4) % 8)),
                         gen::parity_network(8 + 4 * ((i / 4) % 8)));
        break;
      case 2:
        out.emplace_back(util::format("adder%d", 1 + (i / 4) % 2),
                         gen::adder_network(1 + (i / 4) % 2));
        break;
      default: {
        gen::NetworkGenOptions opt;
        opt.num_inputs = 8;
        opt.num_nodes = 8 + static_cast<int>(rng.next_below(7));
        opt.num_outputs = opt.num_nodes;
        out.emplace_back(util::format("random%d_%d", opt.num_nodes, i),
                         gen::random_network(opt, rng));
      }
    }
  }
  return out;
}

TEST(FlowVerify, EveryDesignOfTheMixVerifies) {
  for (const auto& [name, net] : design_mix(1, 24)) {
    const auto res = run_flow(net);
    const auto st = verify(net, res);
    EXPECT_TRUE(st.ok()) << name << ": " << st.message;
    EXPECT_EQ(res.routing.stats.failed, 0) << name;
  }
}

// A router that loses a net: verify must see it even though every net
// still marked routed is legal.
TEST(FlowVerify, DroppedNetFails) {
  const auto net = gen::adder_network(3);
  auto res = run_flow(net);
  ASSERT_TRUE(verify(net, res).ok());
  auto& dropped = res.routing.nets.at(res.routing.nets.size() / 2);
  ASSERT_TRUE(dropped.routed);
  dropped.routed = false;
  dropped.cells.clear();
  --res.routing.stats.routed;
  ++res.routing.stats.failed;
  const auto grade = grader::grade_routing(res.routing_problem, res.routing);
  ASSERT_EQ(grade.legal_nets, res.routing.stats.routed);  // the old check passes
  const auto st = verify(net, res);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message.find("routing"), std::string::npos) << st.message;
}

// A mapper that inverts one gate: the SAT miter must catch it. The gate
// drives a primary output, so the flip shows on every input vector.
TEST(FlowVerify, FlippedGateFails) {
  const auto net = gen::adder_network(3);
  auto res = run_flow(net);
  ASSERT_TRUE(verify(net, res).ok());
  auto& mapped = res.mapped.netlist;
  bool flipped = false;
  for (const network::NodeId id : mapped.outputs()) {
    auto& node = mapped.node(id);
    if (node.type != network::NodeType::kLogic || node.fanins.empty()) continue;
    node.cover = cubes::complement(node.cover);
    flipped = true;
    break;
  }
  ASSERT_TRUE(flipped);
  const auto st = verify(net, res);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message.find("mapped netlist"), std::string::npos) << st.message;
}

// A route that runs one net's wire onto another net's pin: the two nets
// short.
TEST(FlowVerify, ShortedRouteFails) {
  const auto net = gen::adder_network(3);
  auto res = run_flow(net);
  ASSERT_TRUE(verify(net, res).ok());
  ASSERT_GE(res.routing.nets.size(), 2u);
  const auto& victim = res.routing_problem.nets[1];
  res.routing.nets[0].cells.push_back(victim.pins.front());
  const auto st = verify(net, res);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message.find("routing"), std::string::npos) << st.message;
}

}  // namespace
}  // namespace l2l::flow
