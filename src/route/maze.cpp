#include "route/maze.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>

namespace l2l::route {

Occupancy::Occupancy(const gen::RoutingProblem& p)
    : width_(p.width), height_(p.height), layers_(p.num_layers) {
  cells_.assign(static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_) *
                    static_cast<std::size_t>(layers_),
                kFree);
  for (int layer = 0; layer < layers_; ++layer)
    for (int y = 0; y < height_; ++y)
      for (int x = 0; x < width_; ++x)
        if (p.blocked[static_cast<std::size_t>(layer)]
                     [static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                      static_cast<std::size_t>(x)])
          set({x, y, layer}, kObstacle);
}

namespace {

// Directions: 0=+x, 1=-x, 2=+y, 3=-y, 4=via, 5=start. A state packs
// point * kDirs + direction.
constexpr int kDirs = 6;
constexpr int kDx[4] = {1, -1, 0, 0};
constexpr int kDy[4] = {0, 0, 1, -1};

/// Radix heap (Ahuja, Mehlhorn, Orlin & Tarjan) over f = g + h.
/// Non-negative doubles order like their IEEE bit patterns, so the key is
/// the bit pattern of f. An entry lives in the bucket named by the highest
/// bit in which its key differs from the last key a bucket pop settled on;
/// that pop empties the lowest non-empty bucket into strictly lower ones,
/// so each entry moves at most 64 times and no pop sifts a binary heap.
/// A radix heap needs keys that never fall below the last pop. A* breaks
/// that only after a zero-cost step onto the net's own cells, where the
/// Manhattan bound is inconsistent; those few keys go to a binary side
/// heap that pops first. The pop order is therefore exactly that of f,
/// and a path over the net's own metal still wins at its true cost.
///
/// Equal keys are common (unit wire and bend costs), and the order they
/// leave in picks among equal-cost routes, which moves negotiated-routing
/// completion by a net or two either way. Bucket 0 is a stack and a bucket
/// pop re-queues its entries back to front; EXPERIMENTS.md ("Maze search
/// kernel") has the tie orders measured against the routing quality gate.
class RadixHeap {
 public:
  struct Entry {
    std::uint64_t key;
    double g;
    std::uint32_t state;
    std::uint32_t pos;  // the state's packed (y, layer); the entry stays 24 bytes
    bool operator>(const Entry& o) const { return key > o.key; }
  };

  /// Empties the heap; every buffer keeps its storage for the next search.
  void reset() {
    for (auto& b : buckets_) b.clear();
    low_.clear();
    occupied_ = 0;
    last_ = 0;
  }
  bool empty() const {
    return low_.empty() && occupied_ == 0 && buckets_[0].empty();
  }

  // push, pop and put are forced into the search loop; left to itself,
  // GCC calls push out of line.
  [[gnu::always_inline]] void push(double f, double g, std::uint32_t state, std::uint32_t pos) {
    const Entry e{std::bit_cast<std::uint64_t>(f), g, state, pos};
    if (e.key < last_) {
      low_.push_back(e);
      std::push_heap(low_.begin(), low_.end(), std::greater<Entry>());
    } else {
      put(e);
    }
  }

  [[gnu::always_inline]] Entry pop() {
    if (!low_.empty()) {
      std::pop_heap(low_.begin(), low_.end(), std::greater<Entry>());
      const Entry e = low_.back();
      low_.pop_back();
      return e;
    }
    if (buckets_[0].empty()) {
      const int b = std::countr_zero(occupied_) + 1;
      occupied_ &= occupied_ - 1;
      auto& from = buckets_[static_cast<std::size_t>(b)];
      std::uint64_t lo = from.front().key;
      for (const Entry& e : from) lo = std::min(lo, e.key);
      last_ = lo;
      for (auto it = from.rbegin(); it != from.rend(); ++it) put(*it);
      from.clear();
    }
    const Entry e = buckets_[0].back();
    buckets_[0].pop_back();
    return e;
  }

 private:
  [[gnu::always_inline]] void put(const Entry& e) {
    const int b = e.key == last_ ? 0 : 64 - std::countl_zero(e.key ^ last_);
    buckets_[static_cast<std::size_t>(b)].push_back(e);
    if (b > 0) occupied_ |= std::uint64_t{1} << (b - 1);
  }

  std::array<std::vector<Entry>, 65> buckets_;
  std::uint64_t occupied_ = 0;  // bit b-1 set: bucket b (1..64) non-empty
  std::uint64_t last_ = 0;
  std::vector<Entry> low_;  // binary min-heap on key (std::push_heap)
};

}  // namespace

struct SearchArena::Scratch {
  struct Node {
    double g;
    std::int32_t parent;  // packed predecessor state, -1 at a source
    std::uint32_t stamp;  // == gen: g and parent belong to this search
  };
  struct Point {
    double best;           // least g over the point's direction states
    std::uint32_t seen;    // == gen: best belongs to this search
    std::uint32_t target;  // == gen: the point is a target
  };
  std::vector<Node> nodes;       // per packed (point, dir) state
  std::vector<Point> points;     // per grid point
  NearestTargetBound target_bound;  // multi-target bound
  RadixHeap heap;
  std::uint32_t gen = 0;

  /// Starts a search over `n_points` grid points: a new generation makes
  /// every stamp stale at once, and the buffers only ever grow. A buffer
  /// that must grow is freed before its replacement is allocated, since
  /// nothing in it outlives the search: an arena kept across route_all
  /// calls then never holds two copies at once.
  void begin(std::size_t n_points) {
    if (++gen == 0) {  // wrapped: clear the stamps a new search could match
      for (auto& n : nodes) n.stamp = 0;
      for (auto& p : points) p.seen = p.target = 0;
      gen = 1;
    }
    if (nodes.size() < n_points * kDirs) {
      nodes = std::vector<Node>();
      nodes.resize(n_points * kDirs, Node{0.0, -1, 0});
    }
    if (points.size() < n_points) {
      points = std::vector<Point>();
      points.resize(n_points, Point{0.0, 0, 0});
    }
    heap.reset();
  }
};

bool NearestTargetBound::build(const std::vector<GridPoint>& targets,
                               const Occupancy& occ) {
  x0_ = y0_ = std::numeric_limits<int>::max();
  x1_ = y1_ = std::numeric_limits<int>::min();
  for (const auto& t : targets) {
    if (!occ.in_bounds(t)) continue;
    x0_ = std::min(x0_, t.x);
    x1_ = std::max(x1_, t.x);
    y0_ = std::min(y0_, t.y);
    y1_ = std::max(y1_, t.y);
  }
  if (x0_ > x1_) return false;
  const int bw = x1_ - x0_ + 1, bh = y1_ - y0_ + 1;
  // Any box distance is below bw + bh, so this never overflows a step.
  dist_.assign(static_cast<std::size_t>(bw) * static_cast<std::size_t>(bh), bw + bh);
  for (const auto& t : targets)
    if (occ.in_bounds(t))
      dist_[static_cast<std::size_t>(t.y - y0_) * static_cast<std::size_t>(bw) +
            static_cast<std::size_t>(t.x - x0_)] = 0;
  int* const d = dist_.data();
  for (int y = 0, i = 0; y < bh; ++y)
    for (int x = 0; x < bw; ++x, ++i) {
      if (x > 0) d[i] = std::min(d[i], d[i - 1] + 1);
      if (y > 0) d[i] = std::min(d[i], d[i - bw] + 1);
    }
  for (int y = bh - 1, i = bw * bh - 1; y >= 0; --y)
    for (int x = bw - 1; x >= 0; --x, --i) {
      if (x + 1 < bw) d[i] = std::min(d[i], d[i + 1] + 1);
      if (y + 1 < bh) d[i] = std::min(d[i], d[i + bw] + 1);
    }
  return true;
}

SearchArena::SearchArena() : scratch_(std::make_unique<Scratch>()) {}
SearchArena::~SearchArena() = default;

std::optional<PathResult> find_path(const Occupancy& occ,
                                    const std::vector<GridPoint>& sources,
                                    const std::vector<GridPoint>& targets,
                                    int net_id, const RouteCosts& costs,
                                    const std::vector<double>* extra_cost) {
  SearchArena arena;
  return find_path(arena, occ, sources, targets, net_id, costs, extra_cost);
}

namespace {

/// The A* bound a search prices its pushes with.
enum class Bound {
  kNone,           ///< plain Dijkstra
  kOneTarget,      ///< Manhattan distance to the one target
  kNearestTarget,  ///< precomputed distance to the nearest of several
};

/// What one search reads and does not change.
struct SearchInput {
  const Occupancy& occ;
  const std::vector<GridPoint>& sources;
  GridPoint target;  ///< the first target (kOneTarget's)
  int net_id;
  const RouteCosts& costs;
  const double* field;  ///< per-point penalty, or null
};

/// The search loop, compiled once per bound and with or without a penalty
/// field, so no step branches on either. Returns the goal state, or -1
/// when no target is reachable; counts expansions into `expansions`.
template <Bound kBound, bool kField>
std::int64_t search(SearchArena::Scratch& sc, const SearchInput& in, int& expansions) {
  const Occupancy& occ = in.occ;
  const int w = occ.width(), h = occ.height(), layers = occ.layers();
  const auto plane = static_cast<std::uint32_t>(w) * static_cast<std::uint32_t>(h);
  const auto w32 = static_cast<std::uint32_t>(w);
  // A heap entry carries its state's y above the low layer_bits bits and
  // its layer in them. That is below 2 * h * layers, so it fits 32 bits
  // wherever a state (point * kDirs + dir, an int32 parent) does.
  const int layer_bits = std::bit_width(static_cast<std::uint32_t>(layers - 1));
  const std::uint32_t layer_mask = (1u << layer_bits) - 1;
  const int net_id = in.net_id;
  const std::uint32_t gen = sc.gen;
  // The loop reads everything through locals: a store to a node's or a
  // point's double could alias a field of `costs` or a vector object, and
  // would make the compiler reload them after every store.
  const double wire = in.costs.wire, via = in.costs.via, bend = in.costs.bend,
               wrong_way = in.costs.wrong_way;
  const bool preferred = in.costs.preferred_directions;
  const int tx = in.target.x, ty = in.target.y;
  const int* const cell = occ.data();
  const double* const field = in.field;
  const NearestTargetBound& target_bound = sc.target_bound;
  auto* const nodes = sc.nodes.data();
  auto* const points = sc.points.data();
  auto& heap = sc.heap;

  // A* heuristic: cheapest possible remaining cost = Manhattan distance to
  // the closest target times the unit wire cost (every step onto a cell
  // the net does not own costs at least `wire`; vias only add).
  auto heuristic = [&](int x, int y) -> double {
    if constexpr (kBound == Bound::kNone) {
      return 0.0;
    } else if constexpr (kBound == Bound::kNearestTarget) {
      return target_bound.at(x, y) * wire;
    } else {
      return (std::abs(x - tx) + std::abs(y - ty)) * wire;
    }
  };
  // Only the next move's bend penalty depends on a state's direction, so
  // two states of one point differ in cost-to-go by at most `bend`: a
  // state at least `bend` dearer than its point's best is never on a
  // cheaper path. It is not queued, nor expanded if it became so while
  // queued.
  auto relax = [&](std::size_t pi, int dir, double g, std::int32_t from, double h_next,
                   std::uint32_t pos) __attribute__((always_inline)) {
    auto& pt = points[pi];
    if (pt.seen == gen) {
      if (g >= pt.best + bend) return;
      pt.best = std::min(pt.best, g);
    } else {
      pt.best = g;
      pt.seen = gen;
    }
    const std::size_t s = pi * kDirs + static_cast<std::size_t>(dir);
    auto& n = nodes[s];
    if (n.stamp != gen || g < n.g) {
      n = {g, from, gen};
      heap.push(g + h_next, g, static_cast<std::uint32_t>(s), pos);
    }
  };
  auto passable = [&](int v) { return v == Occupancy::kFree || v == net_id; };

  for (const auto& src : in.sources) {
    if (!occ.in_bounds(src) || !passable(occ.at(src))) continue;
    relax(occ.index(src), 5, 0.0, -1, heuristic(src.x, src.y),
          static_cast<std::uint32_t>(src.y) << layer_bits | static_cast<std::uint32_t>(src.layer));
  }

  const std::ptrdiff_t kStep[4] = {1, -1, w, -w};
  while (!heap.empty()) {
    const auto top = heap.pop();
    const double g = top.g;
    const std::uint32_t state = top.state;
    const auto s = static_cast<std::size_t>(state);
    if (g > nodes[s].g) continue;  // stale entry
    const std::uint32_t pi = state / kDirs;
    const auto& pt = points[pi];
    if (g > pt.best && g >= pt.best + bend) continue;  // dominated
    ++expansions;
    const int dir = static_cast<int>(state - pi * kDirs);
    if (pt.target == gen) return state;
    // The entry carries (y, layer), so x costs no division.
    const std::uint32_t pos = top.pos;
    const std::uint32_t layer = pos & layer_mask, y = pos >> layer_bits;
    const GridPoint here{static_cast<int>(pi - layer * plane - y * w32),
                         static_cast<int>(y), static_cast<int>(layer)};
    const std::uint32_t pos_step[4] = {0, 0, 1u << layer_bits, 0u - (1u << layer_bits)};

    // Planar moves.
    for (int d = 0; d < 4; ++d) {
      const int nx = here.x + kDx[d], ny = here.y + kDy[d];
      if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
      const std::size_t npi = static_cast<std::size_t>(static_cast<std::ptrdiff_t>(pi) + kStep[d]);
      const int v = cell[npi];
      if (!passable(v)) continue;
      double step = 0.0;
      if (v != net_id) {
        step = wire;
        if constexpr (kField) step += field[npi];
        // Layer 0 prefers horizontal (d 0/1); layer 1 vertical (d 2/3).
        if (preferred && (here.layer == 0 ? d >= 2 : d < 2)) step += wrong_way;
      }
      if (dir < 4 && dir != d) step += bend;
      relax(npi, d, g + step, static_cast<std::int32_t>(state), heuristic(nx, ny),
            pos + pos_step[d]);
    }
    // Via move.
    const double h_here = heuristic(here.x, here.y);
    for (int dl = -1; dl <= 1; dl += 2) {
      const int nl = here.layer + dl;
      if (nl < 0 || nl >= layers) continue;
      const std::size_t npi = dl > 0 ? pi + plane : pi - plane;
      const int v = cell[npi];
      if (!passable(v)) continue;
      double step = 0.0;
      if (v != net_id) {
        step = via;
        if constexpr (kField) step += field[npi];
      }
      relax(npi, 4, g + step, static_cast<std::int32_t>(state), h_here,
            pos + static_cast<std::uint32_t>(dl));
    }
  }
  return -1;
}

template <Bound kBound>
std::int64_t search(SearchArena::Scratch& sc, const SearchInput& in, int& expansions) {
  return in.field ? search<kBound, true>(sc, in, expansions)
                  : search<kBound, false>(sc, in, expansions);
}

}  // namespace

std::optional<PathResult> find_path(SearchArena& arena, const Occupancy& occ,
                                    const std::vector<GridPoint>& sources,
                                    const std::vector<GridPoint>& targets,
                                    int net_id, const RouteCosts& costs,
                                    const std::vector<double>* extra_cost) {
  if (targets.empty()) return std::nullopt;
  const int w = occ.width(), h = occ.height(), layers = occ.layers();
  const std::size_t plane = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
  const std::size_t n_points = plane * static_cast<std::size_t>(layers);

  auto& sc = arena.scratch();
  sc.begin(n_points);
  for (const auto& t : targets)
    if (occ.in_bounds(t)) sc.points[occ.index(t)].target = sc.gen;

  // A single target's bound is a closed form; several targets share a
  // nearest-target table over their bounding box, built once per search
  // instead of scanning every target on every push.
  const bool multi_target = costs.use_astar && targets.size() > 1;
  if (multi_target && !sc.target_bound.build(targets, occ)) return std::nullopt;

  const SearchInput in{occ, sources, targets.front(), net_id, costs,
                       extra_cost ? extra_cost->data() : nullptr};
  int expansions = 0;
  const std::int64_t goal_state =
      !costs.use_astar ? search<Bound::kNone>(sc, in, expansions)
      : multi_target   ? search<Bound::kNearestTarget>(sc, in, expansions)
                       : search<Bound::kOneTarget>(sc, in, expansions);
  if (goal_state < 0) return std::nullopt;

  PathResult res;
  res.cost = sc.nodes[static_cast<std::size_t>(goal_state)].g;
  res.expansions = expansions;
  // Packed states fit 32 bits (parents are int32), so unpack with 32-bit
  // division.
  const auto w32 = static_cast<std::uint32_t>(w), h32 = static_cast<std::uint32_t>(h);
  for (std::int64_t s = goal_state; s >= 0; s = sc.nodes[static_cast<std::size_t>(s)].parent) {
    const auto p = static_cast<std::uint32_t>(s / kDirs);
    const std::uint32_t row = p / w32;
    res.cells.push_back(GridPoint{static_cast<int>(p % w32), static_cast<int>(row % h32),
                                  static_cast<int>(row / h32)});
  }
  std::reverse(res.cells.begin(), res.cells.end());
  // Source cells reached at zero cost may duplicate when the path touches
  // the net's own tree; dedupe consecutive repeats.
  res.cells.erase(std::unique(res.cells.begin(), res.cells.end()),
                  res.cells.end());
  return res;
}

}  // namespace l2l::route
