#include "timing/elmore.hpp"

#include <algorithm>
#include <stdexcept>

namespace l2l::timing {

void RcTree::validate() const {
  if (nodes.empty()) throw std::logic_error("RcTree: empty");
  if (nodes[0].parent != -1) throw std::logic_error("RcTree: bad root");
  for (std::size_t i = 1; i < nodes.size(); ++i) {
    if (nodes[i].parent < 0 || static_cast<std::size_t>(nodes[i].parent) >= i)
      throw std::logic_error("RcTree: parents must precede children");
  }
}

std::vector<double> elmore_delays(const RcTree& tree) {
  tree.validate();
  const std::size_t n = tree.nodes.size();
  // Downstream capacitance per node: children-first accumulation.
  std::vector<double> cdown(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) cdown[i] = tree.nodes[i].capacitance;
  for (std::size_t i = n; i-- > 1;)
    cdown[static_cast<std::size_t>(tree.nodes[i].parent)] += cdown[i];
  // delay(i) = delay(parent) + R_i * cdown(i).
  std::vector<double> delay(n, 0.0);
  for (std::size_t i = 1; i < n; ++i)
    delay[i] = delay[static_cast<std::size_t>(tree.nodes[i].parent)] +
               tree.nodes[i].resistance * cdown[i];
  return delay;
}

double total_capacitance(const RcTree& tree) {
  double c = 0.0;
  for (const auto& n : tree.nodes) c += n.capacitance;
  return c;
}

namespace {

/// An RC tree plus the tree node of each sink, in `sinks` order.
struct RoutedRcTree {
  RcTree tree;
  std::vector<int> sink_nodes;
};

/// BFS from the source over the net's cells, in the fixed neighbour order
/// +x, -x, +y, -y, +layer, -layer. Cells are looked up in one sorted,
/// deduplicated copy of `net.cells`.
RoutedRcTree build_rc_tree(const route::NetRoute& net,
                           const route::GridPoint& source,
                           const std::vector<route::GridPoint>& sinks,
                           const WireParasitics& par) {
  std::vector<route::GridPoint> cells = net.cells;
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  auto cell_index = [&cells](const route::GridPoint& g) {
    const auto it = std::lower_bound(cells.begin(), cells.end(), g);
    return it != cells.end() && *it == g ? static_cast<int>(it - cells.begin())
                                         : -1;
  };

  const int source_cell = cell_index(source);
  if (source_cell < 0)
    throw std::invalid_argument("rc_tree_from_route: source not on net");

  // Sink load per cell, summed in sink order (a duplicated sink counts
  // twice); a sink off the net is reported after the connectivity check.
  std::vector<double> extra_cap(cells.size(), 0.0);
  std::vector<char> is_sink(cells.size(), 0);
  std::vector<int> sink_cells;
  sink_cells.reserve(sinks.size());
  for (const auto& s : sinks) {
    const int c = cell_index(s);
    sink_cells.push_back(c);
    if (c < 0) continue;
    extra_cap[static_cast<std::size_t>(c)] += par.sink_c;
    is_sink[static_cast<std::size_t>(c)] = 1;
  }

  RoutedRcTree out;
  auto& nodes = out.tree.nodes;
  nodes.reserve(cells.size());
  std::vector<int> node_of(cells.size(), -1);  // cell -> tree node
  // Tree node i is cell order[i]; the BFS queue is this vector.
  std::vector<int> order;
  order.reserve(cells.size());
  auto add_node = [&](int cell, int parent, bool via) {
    RcTree::RcNode n;
    n.parent = parent;
    n.resistance = parent < 0 ? 0.0 : (via ? par.via_r : par.r_per_unit);
    n.capacitance = parent < 0 ? 0.0 : (via ? par.via_c : par.c_per_unit);
    if (is_sink[static_cast<std::size_t>(cell)])
      n.capacitance += extra_cap[static_cast<std::size_t>(cell)];
    node_of[static_cast<std::size_t>(cell)] = static_cast<int>(nodes.size());
    nodes.push_back(n);
    order.push_back(cell);
  };

  add_node(source_cell, -1, false);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const auto& here = cells[static_cast<std::size_t>(order[head])];
    const int here_idx = static_cast<int>(head);
    const route::GridPoint nbrs[6] = {
        {here.x + 1, here.y, here.layer}, {here.x - 1, here.y, here.layer},
        {here.x, here.y + 1, here.layer}, {here.x, here.y - 1, here.layer},
        {here.x, here.y, here.layer + 1}, {here.x, here.y, here.layer - 1}};
    for (int k = 0; k < 6; ++k) {
      const int nb = cell_index(nbrs[k]);
      if (nb < 0 || node_of[static_cast<std::size_t>(nb)] >= 0) continue;
      add_node(nb, here_idx, /*via=*/k >= 4);
    }
  }
  if (nodes.size() != cells.size())
    throw std::invalid_argument("rc_tree_from_route: net is not connected");
  out.sink_nodes.reserve(sinks.size());
  for (const int c : sink_cells) {
    if (c < 0)
      throw std::invalid_argument("rc_tree_from_route: sink not on net");
    out.sink_nodes.push_back(node_of[static_cast<std::size_t>(c)]);
  }
  return out;
}

}  // namespace

RcTree rc_tree_from_route(const route::NetRoute& net,
                          const route::GridPoint& source,
                          const std::vector<route::GridPoint>& sinks,
                          const WireParasitics& par) {
  return build_rc_tree(net, source, sinks, par).tree;
}

std::vector<double> net_sink_delays(const route::NetRoute& net,
                                    const route::GridPoint& source,
                                    const std::vector<route::GridPoint>& sinks,
                                    const WireParasitics& par) {
  const auto built = build_rc_tree(net, source, sinks, par);
  const auto delays = elmore_delays(built.tree);
  std::vector<double> out;
  out.reserve(sinks.size());
  for (const int node : built.sink_nodes)
    out.push_back(delays[static_cast<std::size_t>(node)]);
  return out;
}

}  // namespace l2l::timing
