#include <gtest/gtest.h>

#include <map>
#include <queue>
#include <string>

#include "gen/function_gen.hpp"
#include "route/router.hpp"
#include "techmap/mapper.hpp"
#include "timing/elmore.hpp"
#include "timing/sta.hpp"
#include "util/rng.hpp"

namespace l2l::timing {
namespace {

using network::Network;
using network::NodeId;

TEST(Sta, ChainDelays) {
  // a -> n1 -> n2 -> n3 (unit delays): critical delay 3.
  Network net;
  const auto a = net.add_input("a");
  auto prev = a;
  for (int k = 0; k < 3; ++k)
    prev = net.add_logic("n" + std::to_string(k), {prev},
                         cubes::Cover::parse(1, "1\n"));
  net.mark_output(prev);
  const auto res = analyze(net, unit_delays(net));
  EXPECT_DOUBLE_EQ(res.critical_delay, 3.0);
  EXPECT_DOUBLE_EQ(res.arrival[static_cast<std::size_t>(a)], 0.0);
  EXPECT_DOUBLE_EQ(res.worst_slack, 0.0);
  EXPECT_EQ(res.critical_path.size(), 4u);
  EXPECT_EQ(res.critical_path.front(), a);
  EXPECT_EQ(res.critical_path.back(), prev);
}

TEST(Sta, ReconvergentPathsTakeMax) {
  // a feeds a short path (1 gate) and a long path (3 gates) into y.
  Network net;
  const auto a = net.add_input("a");
  const auto s = net.add_logic("s", {a}, cubes::Cover::parse(1, "1\n"));
  const auto l1 = net.add_logic("l1", {a}, cubes::Cover::parse(1, "0\n"));
  const auto l2 = net.add_logic("l2", {l1}, cubes::Cover::parse(1, "0\n"));
  const auto y =
      net.add_logic("y", {s, l2}, cubes::Cover::parse(2, "11\n"));
  net.mark_output(y);
  const auto res = analyze(net, unit_delays(net));
  EXPECT_DOUBLE_EQ(res.critical_delay, 3.0);
  // The short branch has slack 2 at node s... s arrives at 1, required at
  // critical (3) minus delay(y)=1 -> 2, slack 1.
  EXPECT_DOUBLE_EQ(res.slack[static_cast<std::size_t>(s)], 1.0);
  EXPECT_DOUBLE_EQ(res.slack[static_cast<std::size_t>(l1)], 0.0);
  EXPECT_DOUBLE_EQ(res.slack[static_cast<std::size_t>(l2)], 0.0);
}

TEST(Sta, RequiredTimeGivesNegativeSlack) {
  Network net;
  const auto a = net.add_input("a");
  auto prev = a;
  for (int k = 0; k < 4; ++k)
    prev = net.add_logic("n" + std::to_string(k), {prev},
                         cubes::Cover::parse(1, "1\n"));
  net.mark_output(prev);
  const auto res = analyze(net, unit_delays(net), 2.0);
  EXPECT_DOUBLE_EQ(res.worst_slack, -2.0);
}

TEST(Sta, CellDelaysFromMappedNetlist) {
  const auto net = gen::adder_network(2);
  const auto lib = techmap::default_library();
  const auto mapped = techmap::technology_map(net, lib,
                                              techmap::MapObjective::kDelay);
  const auto delays = cell_delays(mapped.netlist, lib);
  const auto res = analyze(mapped.netlist, delays);
  // STA must agree with the mapper's own critical-delay computation.
  EXPECT_NEAR(res.critical_delay, mapped.critical_delay, 1e-9);
}

TEST(Sta, DelayVectorSizeChecked) {
  Network net;
  net.mark_output(net.add_input("a"));
  EXPECT_THROW(analyze(net, std::vector<double>{}), std::invalid_argument);
}

TEST(Elmore, SingleSegment) {
  // Root -- R=2, C=3 node: delay = 2*3 = 6.
  RcTree t;
  t.nodes.push_back({-1, 0.0, 0.0});
  t.nodes.push_back({0, 2.0, 3.0});
  const auto d = elmore_delays(t);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 6.0);
  EXPECT_DOUBLE_EQ(total_capacitance(t), 3.0);
}

TEST(Elmore, ClassicLadder) {
  // R1=1,C1=1; R2=1,C2=1 chain:
  // delay(1) = R1*(C1+C2) = 2; delay(2) = delay(1) + R2*C2 = 3.
  RcTree t;
  t.nodes.push_back({-1, 0.0, 0.0});
  t.nodes.push_back({0, 1.0, 1.0});
  t.nodes.push_back({1, 1.0, 1.0});
  const auto d = elmore_delays(t);
  EXPECT_DOUBLE_EQ(d[1], 2.0);
  EXPECT_DOUBLE_EQ(d[2], 3.0);
}

TEST(Elmore, BranchingTree) {
  //      root
  //       | R=1, C=1          (node 1)
  //   left: R=1,C=2  right: R=2,C=1   (nodes 2 and 3)
  RcTree t;
  t.nodes.push_back({-1, 0.0, 0.0});
  t.nodes.push_back({0, 1.0, 1.0});
  t.nodes.push_back({1, 1.0, 2.0});
  t.nodes.push_back({1, 2.0, 1.0});
  const auto d = elmore_delays(t);
  EXPECT_DOUBLE_EQ(d[1], 1.0 * (1 + 2 + 1));  // all downstream C
  EXPECT_DOUBLE_EQ(d[2], d[1] + 1.0 * 2.0);
  EXPECT_DOUBLE_EQ(d[3], d[1] + 2.0 * 1.0);
}

TEST(Elmore, ValidationRejectsBadTrees) {
  RcTree empty;
  EXPECT_THROW(elmore_delays(empty), std::logic_error);
  RcTree bad;
  bad.nodes.push_back({-1, 0, 0});
  bad.nodes.push_back({5, 1, 1});  // parent after child
  EXPECT_THROW(elmore_delays(bad), std::logic_error);
}

TEST(Elmore, FromRoutedNetStraightWire) {
  route::NetRoute net;
  net.net_id = 0;
  for (int x = 0; x <= 4; ++x) net.cells.push_back({x, 0, 0});
  WireParasitics par;
  par.r_per_unit = 1.0;
  par.c_per_unit = 1.0;
  par.sink_c = 0.0;
  const auto d = net_sink_delays(net, {0, 0, 0}, {{4, 0, 0}}, par);
  ASSERT_EQ(d.size(), 1u);
  // Ladder of 4 RC segments: delay = sum_{k=1..4} k = ... computed from
  // downstream caps: R*(4) + R*(3) + R*(2) + R*(1) = 10.
  EXPECT_DOUBLE_EQ(d[0], 10.0);
}

TEST(Elmore, ViasCostMore) {
  route::NetRoute flat, via;
  flat.net_id = 0;
  via.net_id = 1;
  for (int x = 0; x <= 2; ++x) flat.cells.push_back({x, 0, 0});
  via.cells = {{0, 0, 0}, {1, 0, 0}, {1, 0, 1}, {2, 0, 1}};
  WireParasitics par;
  const auto df = net_sink_delays(flat, {0, 0, 0}, {{2, 0, 0}}, par);
  const auto dv = net_sink_delays(via, {0, 0, 0}, {{2, 0, 1}}, par);
  EXPECT_GT(dv[0], df[0]);
}

TEST(Elmore, RealRoutedNetDelaysPositiveAndOrdered) {
  util::Rng rng(131);
  gen::RoutingGenOptions gopt;
  gopt.width = 24;
  gopt.height = 24;
  gopt.num_nets = 6;
  gopt.max_pins_per_net = 4;
  const auto p = gen::generate_routing(gopt, rng);
  const auto sol = route::route_all(p);
  for (std::size_t n = 0; n < p.nets.size(); ++n) {
    if (!sol.nets[n].routed) continue;
    const auto& pins = p.nets[n].pins;
    std::vector<route::GridPoint> sinks(pins.begin() + 1, pins.end());
    const auto d = net_sink_delays(sol.nets[n], pins[0], sinks);
    for (const double delay : d) EXPECT_GT(delay, 0.0);
  }
}

TEST(Elmore, SourceMustBeOnNet) {
  route::NetRoute net;
  net.cells = {{0, 0, 0}};
  EXPECT_THROW(net_sink_delays(net, {5, 5, 0}, {}), std::invalid_argument);
}

TEST(Elmore, SinkMustBeOnNet) {
  route::NetRoute net;
  net.cells = {{0, 0, 0}, {1, 0, 0}};
  EXPECT_THROW(net_sink_delays(net, {0, 0, 0}, {{1, 0, 0}, {2, 0, 0}}),
               std::invalid_argument);
  EXPECT_THROW(rc_tree_from_route(net, {0, 0, 0}, {{1, 0, 1}}),
               std::invalid_argument);
}

std::string thrown_message(const route::NetRoute& net,
                           const route::GridPoint& source,
                           const std::vector<route::GridPoint>& sinks) {
  try {
    (void)net_sink_delays(net, source, sinks);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Elmore, DisconnectedNetThrows) {
  route::NetRoute net;
  net.cells = {{0, 0, 0}, {1, 0, 0}, {3, 0, 0}};  // (3,0) is an island
  EXPECT_THROW(net_sink_delays(net, {0, 0, 0}, {{1, 0, 0}}),
               std::invalid_argument);
  // Checks run source, then connectivity, then sinks.
  EXPECT_EQ(thrown_message(net, {0, 0, 0}, {{9, 9, 0}}),
            "rc_tree_from_route: net is not connected");
  EXPECT_EQ(thrown_message(net, {9, 9, 0}, {{9, 9, 0}}),
            "rc_tree_from_route: source not on net");
  net.cells.pop_back();
  EXPECT_EQ(thrown_message(net, {0, 0, 0}, {{9, 9, 0}}),
            "rc_tree_from_route: sink not on net");
}

// Reference RC-tree builder: grid cells indexed through std::map, BFS from
// the source in the neighbour order +x, -x, +y, -y, +layer, -layer. Returns
// the tree and each sink's node (the nets here are valid: no throws).
std::pair<RcTree, std::vector<int>> reference_tree(
    const route::NetRoute& net, const route::GridPoint& source,
    const std::vector<route::GridPoint>& sinks, const WireParasitics& par) {
  std::map<route::GridPoint, int> index;
  RcTree tree;
  std::map<route::GridPoint, double> extra_cap;
  for (const auto& s : sinks) extra_cap[s] += par.sink_c;
  std::map<route::GridPoint, bool> in_net;
  for (const auto& c : net.cells) in_net[c] = true;
  auto add_node = [&](const route::GridPoint& g, int parent, bool via) {
    RcTree::RcNode n;
    n.parent = parent;
    n.resistance = parent < 0 ? 0.0 : (via ? par.via_r : par.r_per_unit);
    n.capacitance = parent < 0 ? 0.0 : (via ? par.via_c : par.c_per_unit);
    if (const auto it = extra_cap.find(g); it != extra_cap.end())
      n.capacitance += it->second;
    tree.nodes.push_back(n);
    index[g] = static_cast<int>(tree.nodes.size()) - 1;
  };
  std::queue<route::GridPoint> frontier;
  add_node(source, -1, false);
  frontier.push(source);
  while (!frontier.empty()) {
    const auto here = frontier.front();
    frontier.pop();
    const int here_idx = index[here];
    const route::GridPoint nbrs[6] = {
        {here.x + 1, here.y, here.layer}, {here.x - 1, here.y, here.layer},
        {here.x, here.y + 1, here.layer}, {here.x, here.y - 1, here.layer},
        {here.x, here.y, here.layer + 1}, {here.x, here.y, here.layer - 1}};
    for (int k = 0; k < 6; ++k) {
      const auto& nb = nbrs[k];
      if (!in_net.count(nb) || index.count(nb)) continue;
      add_node(nb, here_idx, /*via=*/k >= 4);
      frontier.push(nb);
    }
  }
  std::vector<int> sink_nodes;
  for (const auto& s : sinks) sink_nodes.push_back(index.at(s));
  return {tree, sink_nodes};
}

void expect_matches_reference(const route::NetRoute& net,
                              const route::GridPoint& source,
                              const std::vector<route::GridPoint>& sinks,
                              const WireParasitics& par) {
  const auto [ref, ref_sinks] = reference_tree(net, source, sinks, par);
  const auto tree = rc_tree_from_route(net, source, sinks, par);
  ASSERT_EQ(tree.nodes.size(), ref.nodes.size());
  for (std::size_t i = 0; i < ref.nodes.size(); ++i) {
    EXPECT_EQ(tree.nodes[i].parent, ref.nodes[i].parent) << "node " << i;
    EXPECT_EQ(tree.nodes[i].resistance, ref.nodes[i].resistance) << "node " << i;
    EXPECT_EQ(tree.nodes[i].capacitance, ref.nodes[i].capacitance)
        << "node " << i;
  }
  const auto ref_delays = elmore_delays(ref);
  const auto got = net_sink_delays(net, source, sinks, par);
  ASSERT_EQ(got.size(), sinks.size());
  for (std::size_t k = 0; k < sinks.size(); ++k)
    EXPECT_EQ(got[k], ref_delays[static_cast<std::size_t>(ref_sinks[k])])
        << "sink " << k;
}

// The flow's delays are bit-exact against the reference on real routed
// nets, also when the net's cells come unsorted and duplicated, a sink is
// listed twice (its load counts twice) or a sink is the source itself.
TEST(Elmore, SinkDelaysMatchMapReferenceOnRoutedNets) {
  WireParasitics flow_par;  // the flow's parasitics
  flow_par.r_per_unit = 0.05;
  flow_par.c_per_unit = 0.1;
  flow_par.via_r = 0.2;
  flow_par.via_c = 0.05;
  flow_par.sink_c = 0.2;
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    util::Rng rng(500 + seed);
    gen::RoutingGenOptions gopt;
    gopt.width = 20 + 4 * static_cast<int>(seed);
    gopt.height = gopt.width;
    gopt.num_nets = 8;
    gopt.max_pins_per_net = 2 + static_cast<int>(seed % 4);
    const auto p = gen::generate_routing(gopt, rng);
    const auto sol = route::route_all(p);
    for (std::size_t n = 0; n < p.nets.size(); ++n) {
      if (!sol.nets[n].routed) continue;
      const auto& pins = p.nets[n].pins;
      const std::vector<route::GridPoint> sinks(pins.begin() + 1, pins.end());
      for (const auto& par : {WireParasitics{}, flow_par}) {
        expect_matches_reference(sol.nets[n], pins[0], sinks, par);

        route::NetRoute shuffled = sol.nets[n];
        for (std::size_t i = 0; i < shuffled.cells.size(); i += 3)
          shuffled.cells.push_back(shuffled.cells[i]);
        rng.shuffle(shuffled.cells);
        expect_matches_reference(shuffled, pins[0], sinks, par);

        std::vector<route::GridPoint> doubled = sinks;
        doubled.push_back(sinks.front());
        doubled.push_back(pins[0]);
        expect_matches_reference(shuffled, pins[0], doubled, par);
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 60);
}

}  // namespace
}  // namespace l2l::timing
