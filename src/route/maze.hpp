#pragma once
// Grid maze routing (Week 7 / MOOC Project 4): multi-layer Lee wavefront /
// Dijkstra / A* expansion with non-unit costs -- via cost, bend penalty,
// and preferred-direction ("wrong-way") penalty. Layer 0 prefers
// horizontal wires, layer 1 vertical, like the project's 2-layer scheme.

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <vector>

#include "gen/routing_gen.hpp"

namespace l2l::route {

using gen::GridPoint;

struct RouteCosts {
  double wire = 1.0;       ///< cost per grid step
  double via = 10.0;       ///< cost per layer change
  double bend = 1.0;       ///< penalty for turning within a layer
  double wrong_way = 4.0;  ///< extra cost for non-preferred direction
  bool preferred_directions = true;  ///< false: both layers isotropic
  bool use_astar = true;   ///< false: plain Dijkstra (Lee when costs unit)
};

/// Occupancy grid shared by all nets during routing. Cell values:
/// kFree, kObstacle, or a net id >= 0.
class Occupancy {
 public:
  static constexpr int kFree = -1;
  static constexpr int kObstacle = -2;

  explicit Occupancy(const gen::RoutingProblem& p);

  int at(const GridPoint& g) const {
    return cells_[index(g)];
  }
  /// Cell by point index ((layer * height + y) * width + x).
  int at(std::size_t i) const { return cells_[i]; }
  /// Every cell, by point index.
  const int* data() const { return cells_.data(); }
  void set(const GridPoint& g, int v) { cells_[index(g)] = v; }

  int width() const { return width_; }
  int height() const { return height_; }
  int layers() const { return layers_; }

  bool in_bounds(const GridPoint& g) const {
    return g.x >= 0 && g.x < width_ && g.y >= 0 && g.y < height_ &&
           g.layer >= 0 && g.layer < layers_;
  }

  /// Point index of `g`: (layer * height + y) * width + x. Penalty fields
  /// and per-point grids of the same problem share it.
  std::size_t index(const GridPoint& g) const {
    return (static_cast<std::size_t>(g.layer) * static_cast<std::size_t>(height_) +
            static_cast<std::size_t>(g.y)) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(g.x);
  }

 private:
  int width_, height_, layers_;
  std::vector<int> cells_;
};

struct PathResult {
  std::vector<GridPoint> cells;  ///< contiguous path, source to target
  double cost = 0.0;
  int expansions = 0;            ///< search effort (wavefront size)
};

/// The A* bound of a search toward several targets: the Manhattan (x, y)
/// distance from any plane position to the nearest in-bounds target, as a
/// breadth-first search of the unobstructed plane from every target would
/// find it. Only the targets' bounding box is stored, filled by a
/// forward and a backward raster pass (the city-block distance transform,
/// exact on an unobstructed grid). Any shortest path between two points of
/// the box stays in the box, and a point outside it reaches every target
/// through its clamped point, so at() adds the L1 step to that point.
class NearestTargetBound {
 public:
  /// Rebuilds the bound for the targets that lie on `occ`'s grid (the
  /// others are ignored). Returns false when none does.
  bool build(const std::vector<GridPoint>& targets, const Occupancy& occ);

  int at(int x, int y) const {
    const int cx = std::clamp(x, x0_, x1_), cy = std::clamp(y, y0_, y1_);
    return std::abs(x - cx) + std::abs(y - cy) +
           dist_[static_cast<std::size_t>(cy - y0_) * static_cast<std::size_t>(x1_ - x0_ + 1) +
                 static_cast<std::size_t>(cx - x0_)];
  }

 private:
  int x0_ = 0, y0_ = 0, x1_ = 0, y1_ = 0;  // the targets' box, inclusive
  std::vector<int> dist_;                   // per box cell, row-major
};

/// Reusable scratch for find_path: the search queue, the per-state cost
/// and parent records, and the target marks, all generation-stamped so a
/// search only touches the states it reaches. route_all keeps one for
/// its sequential loops and its calling thread's parallel chunks, and a
/// pool its worker lanes' chunks take from and give back to, all held per
/// calling thread across calls, so the grid-sized buffers are allocated
/// and filled once per lane, not once per search or per call. An arena carries nothing from one search to
/// the next: results never depend on what it searched before. Not
/// thread-safe; use one per thread.
class SearchArena {
 public:
  SearchArena();
  ~SearchArena();
  struct Scratch;  ///< defined in maze.cpp
  Scratch& scratch() { return *scratch_; }

 private:
  std::unique_ptr<Scratch> scratch_;
};

/// Find a cheapest path from any of `sources` to any of `targets`. Cells
/// occupied by other nets or obstacles are impassable; cells owned by
/// `net_id` are passable at zero wire cost (reuse of the net's own tree).
///
/// `extra_cost`, when non-null, is a per-point additive penalty (indexed
/// like the occupancy grid: (layer * height + y) * width + x) applied on
/// entering any cell the net does not already own -- the hook used by the
/// negotiated-congestion router (history + present-sharing costs).
std::optional<PathResult> find_path(const Occupancy& occ,
                                    const std::vector<GridPoint>& sources,
                                    const std::vector<GridPoint>& targets,
                                    int net_id, const RouteCosts& costs,
                                    const std::vector<double>* extra_cost = nullptr);

/// Same search, reusing `arena`'s buffers (the one-shot form above runs
/// this on a fresh arena). Returns the same result as the one-shot form.
std::optional<PathResult> find_path(SearchArena& arena, const Occupancy& occ,
                                    const std::vector<GridPoint>& sources,
                                    const std::vector<GridPoint>& targets,
                                    int net_id, const RouteCosts& costs,
                                    const std::vector<double>* extra_cost = nullptr);

}  // namespace l2l::route
