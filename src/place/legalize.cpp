#include "place/legalize.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>

namespace l2l::place {

Placement GridPlacement::to_continuous(const Grid& g) const {
  Placement pl;
  pl.x.reserve(col.size());
  pl.y.reserve(col.size());
  for (std::size_t c = 0; c < col.size(); ++c) {
    pl.x.push_back(g.site_x(col[c]));
    pl.y.push_back(g.row_y(row[c]));
  }
  return pl;
}

GridPlacement legalize(const gen::PlacementProblem& p, const Placement& pl,
                       const Grid& grid) {
  const int n = p.num_cells;
  if (grid.rows * grid.sites_per_row < n)
    throw std::invalid_argument("legalize: not enough sites");

  // Rows get balanced capacity; cells are banded by y order.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return pl.y[static_cast<std::size_t>(a)] < pl.y[static_cast<std::size_t>(b)];
  });

  GridPlacement gp;
  gp.col.assign(static_cast<std::size_t>(n), 0);
  gp.row.assign(static_cast<std::size_t>(n), 0);

  const int base = n / grid.rows;
  const int extra = n % grid.rows;
  std::size_t cursor = 0;
  for (int r = 0; r < grid.rows; ++r) {
    const int count = base + (r < extra ? 1 : 0);
    std::vector<int> band(order.begin() + static_cast<std::ptrdiff_t>(cursor),
                          order.begin() + static_cast<std::ptrdiff_t>(cursor + static_cast<std::size_t>(count)));
    cursor += static_cast<std::size_t>(count);
    std::sort(band.begin(), band.end(), [&](int a, int b) {
      return pl.x[static_cast<std::size_t>(a)] < pl.x[static_cast<std::size_t>(b)];
    });
    // Spread the band across the row, keeping x order.
    for (std::size_t k = 0; k < band.size(); ++k) {
      const int col = static_cast<int>(
          k * static_cast<std::size_t>(grid.sites_per_row) / band.size());
      gp.col[static_cast<std::size_t>(band[k])] = col;
      gp.row[static_cast<std::size_t>(band[k])] = r;
    }
    // Collisions from the rounding above: shift right to free sites.
    std::set<int> taken;
    for (std::size_t k = 0; k < band.size(); ++k) {
      int col = gp.col[static_cast<std::size_t>(band[k])];
      while (taken.count(col)) ++col;
      if (col >= grid.sites_per_row)
        throw std::logic_error("legalize: row overflow");
      taken.insert(col);
      gp.col[static_cast<std::size_t>(band[k])] = col;
    }
  }
  return gp;
}

bool is_legal(const GridPlacement& gp, const Grid& grid) {
  // Every site in range, then no site twice: the packed (col, row) keys
  // sorted, so a collision is an adjacent pair. Bounded by the cell
  // count, not the grid size.
  if (gp.row.size() < gp.col.size()) return false;
  std::vector<std::uint64_t> sites(gp.col.size());
  for (std::size_t c = 0; c < gp.col.size(); ++c) {
    if (gp.col[c] < 0 || gp.col[c] >= grid.sites_per_row) return false;
    if (gp.row[c] < 0 || gp.row[c] >= grid.rows) return false;
    sites[c] = static_cast<std::uint64_t>(gp.col[c]) << 32 |
               static_cast<std::uint32_t>(gp.row[c]);
  }
  std::sort(sites.begin(), sites.end());
  return std::adjacent_find(sites.begin(), sites.end()) == sites.end();
}

}  // namespace l2l::place
