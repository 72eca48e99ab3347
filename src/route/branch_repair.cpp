#include "route/branch_repair.hpp"

#include <cstdint>

namespace l2l::route {

bool repair_tree(SearchArena& arena, const gen::RoutingNet& net, Occupancy& occ,
                 const RouteCosts& costs, const std::vector<double>& field,
                 const std::vector<int>& usage, const std::vector<GridPoint>& old_wires,
                 std::vector<std::int32_t>& slot, std::vector<GridPoint>& wires,
                 long long& expansions) {
  // The tree's cells: pins first, then wires, each point once.
  std::vector<GridPoint> cells;
  cells.reserve(net.pins.size() + old_wires.size());
  auto add = [&](const GridPoint& c) {
    auto& s = slot[occ.index(c)];
    if (s < 0) {
      s = static_cast<std::int32_t>(cells.size());
      cells.push_back(c);
    }
    return static_cast<std::size_t>(s);
  };
  for (const auto& pin : net.pins) add(pin);
  const std::size_t n_pins = cells.size();
  for (const auto& c : old_wires) add(c);

  // Calls f(j) for each tree cell j that is a grid neighbour of cell i.
  auto for_each_neighbour = [&](std::size_t i, auto&& f) {
    const GridPoint c = cells[i];
    const GridPoint nbrs[6] = {{c.x + 1, c.y, c.layer}, {c.x - 1, c.y, c.layer},
                               {c.x, c.y + 1, c.layer}, {c.x, c.y - 1, c.layer},
                               {c.x, c.y, c.layer + 1}, {c.x, c.y, c.layer - 1}};
    for (const auto& g : nbrs) {
      if (!occ.in_bounds(g)) continue;
      const std::int32_t j = slot[occ.index(g)];
      if (j >= 0) f(static_cast<std::size_t>(j));
    }
  };

  // Walk outward from the contested wires; dist < 0 marks a kept cell.
  std::vector<int> dist(cells.size(), -1);
  std::vector<std::size_t> queue;
  for (std::size_t i = n_pins; i < cells.size(); ++i)
    if (usage[occ.index(cells[i])] > 0) {  // another net's wire is here
      dist[i] = 0;
      queue.push_back(i);
    }
  for (std::size_t q = 0; q < queue.size(); ++q) {
    const std::size_t i = queue[q];
    if (dist[i] == kRepairRadius) continue;
    for_each_neighbour(i, [&](std::size_t j) {
      if (dist[j] >= 0 || j < n_pins) return;
      int degree = 0;
      for_each_neighbour(j, [&](std::size_t) { ++degree; });
      if (degree > 2) return;  // an uncontested junction: the walk stops
      dist[j] = dist[i] + 1;
      queue.push_back(j);
    });
  }

  // The kept cells fall into pieces; a piece without a pin is dropped.
  std::vector<std::int32_t> piece(cells.size(), -1);
  std::vector<bool> piece_has_pin;
  for (std::size_t root = 0; root < cells.size(); ++root) {
    if (dist[root] >= 0 || piece[root] >= 0) continue;
    const auto id = static_cast<std::int32_t>(piece_has_pin.size());
    piece_has_pin.push_back(false);
    queue.assign(1, root);
    piece[root] = id;
    for (std::size_t q = 0; q < queue.size(); ++q) {
      if (queue[q] < n_pins) piece_has_pin.back() = true;
      for_each_neighbour(queue[q], [&](std::size_t j) {
        if (dist[j] < 0 && piece[j] < 0) {
          piece[j] = id;
          queue.push_back(j);
        }
      });
    }
  }
  std::vector<bool> alive(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i)
    alive[i] = piece[i] >= 0 && piece_has_pin[static_cast<std::size_t>(piece[i])];

  // Rejoin the pieces. The kept wires are the net's while it searches, so
  // the searches reuse them at zero cost.
  for (std::size_t i = n_pins; i < cells.size(); ++i)
    if (alive[i]) occ.set(cells[i], net.id);
  const std::int32_t source_piece = piece[0];
  std::vector<GridPoint> sources, targets;
  for (std::size_t i = 0; i < cells.size(); ++i)
    if (alive[i]) (piece[i] == source_piece ? sources : targets).push_back(cells[i]);
  bool ok = true;
  while (!targets.empty()) {
    const auto path = find_path(arena, occ, sources, targets, net.id, costs, &field);
    if (!path) {
      ok = false;
      break;
    }
    expansions += path->expansions;
    for (const auto& c : path->cells) {
      if (occ.at(c) == net.id) continue;
      occ.set(c, net.id);
      const std::size_t i = add(c);  // a new cell, or a dropped wire taken again
      if (i == piece.size()) {
        piece.push_back(source_piece);
        alive.push_back(true);
      }
      piece[i] = source_piece;
      alive[i] = true;
      sources.push_back(c);
    }
    // The path ends on one target piece, which joins the source.
    const std::int32_t joined = piece[static_cast<std::size_t>(slot[occ.index(path->cells.back())])];
    std::erase_if(targets, [&](const GridPoint& c) {
      if (piece[static_cast<std::size_t>(slot[occ.index(c)])] != joined) return false;
      sources.push_back(c);
      return true;
    });
  }

  // Prune wire stubs that end at no pin: a wire with at most one tree
  // neighbour goes, which may expose the next.
  if (ok) {
    std::vector<int> degree(cells.size(), 0);
    queue.clear();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!alive[i]) continue;
      for_each_neighbour(i, [&](std::size_t j) { degree[i] += alive[j]; });
      if (i >= n_pins && degree[i] <= 1) queue.push_back(i);
    }
    for (std::size_t q = 0; q < queue.size(); ++q) {
      const std::size_t i = queue[q];
      alive[i] = false;
      for_each_neighbour(i, [&](std::size_t j) {
        if (alive[j] && --degree[j] == 1 && j >= n_pins) queue.push_back(j);
      });
    }
  }

  wires.clear();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i >= n_pins && occ.at(cells[i]) == net.id) {
      occ.set(cells[i], Occupancy::kFree);
      if (ok && alive[i]) wires.push_back(cells[i]);
    }
    slot[occ.index(cells[i])] = -1;
  }
  return ok;
}

}  // namespace l2l::route
