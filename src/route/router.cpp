#include "route/router.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <thread>
#include <tuple>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "route/branch_repair.hpp"
#include "util/parallel.hpp"

namespace l2l::route {
namespace {

// Flushes the route's local RouteStats to the metrics registry on every
// exit path (convergence, stall, budget). Inner loops only touch
// sol.stats; obs sees one batched update per routing call.
class RouteMetricsFlusher {
 public:
  explicit RouteMetricsFlusher(const RouteStats& stats)
      : stats_(obs::enabled() ? &stats : nullptr), span_("route.negotiated") {}
  ~RouteMetricsFlusher() {
    if (stats_ == nullptr) return;
    obs::count("route.calls");
    obs::count("route.nets_routed", stats_->routed);
    obs::count("route.nets_failed", stats_->failed);
    obs::count("route.ripups", stats_->ripups);
    obs::count("route.negotiation_iterations", stats_->negotiation_iterations);
    obs::count("route.expansions", stats_->expansions);
    obs::count("route.repairs", stats_->repairs);
    obs::count("route.repair_expansions", stats_->repair_expansions);
    obs::count("route.vias", stats_->total_vias);
    obs::count("route.wire_cells",
               static_cast<std::int64_t>(stats_->total_wire));
    obs::observe("route.expansions_per_call", stats_->expansions);
  }

 private:
  const RouteStats* stats_;  // null when collection is disabled
  obs::ScopedSpan span_;
};

/// Bounding-box half-perimeter of a net's pins: routing order heuristic.
int net_span(const gen::RoutingNet& net) {
  int xmin = 1 << 30, xmax = -(1 << 30), ymin = 1 << 30, ymax = -(1 << 30);
  for (const auto& p : net.pins) {
    xmin = std::min(xmin, p.x);
    xmax = std::max(xmax, p.x);
    ymin = std::min(ymin, p.y);
    ymax = std::max(ymax, p.y);
  }
  return (xmax - xmin) + (ymax - ymin);
}

/// Connects the net's pins one at a time into a growing tree, in Prim
/// order: next is the unjoined pin with the least Manhattan gap to the
/// tree (the lower pin index on ties). Every wire cell the tree claims is
/// marked as the net's in `occ`, so later pins reuse it at zero cost, and
/// appended to `claimed`. Returns false when a pin cannot be reached;
/// `claimed` then holds the wires claimed so far.
bool grow_tree(SearchArena& arena, const gen::RoutingNet& net, Occupancy& occ,
               const RouteCosts& costs, const std::vector<double>* extra_cost,
               std::vector<GridPoint>& claimed, long long& expansions) {
  const auto& pins = net.pins;
  std::vector<GridPoint> tree;
  std::vector<int> gap(pins.size(), std::numeric_limits<int>::max());
  std::vector<bool> joined(pins.size(), false);
  auto absorb = [&](const GridPoint& c) {
    tree.push_back(c);
    for (std::size_t k = 0; k < pins.size(); ++k)
      gap[k] = std::min(gap[k], std::abs(pins[k].x - c.x) + std::abs(pins[k].y - c.y));
  };
  absorb(pins.front());
  joined.front() = true;
  for (std::size_t step = 1; step < pins.size(); ++step) {
    std::size_t k = 0;
    while (joined[k]) ++k;
    for (std::size_t j = k + 1; j < pins.size(); ++j)
      if (!joined[j] && gap[j] < gap[k]) k = j;
    joined[k] = true;
    const auto path =
        find_path(arena, occ, tree, {pins[k]}, net.id, costs, extra_cost);
    if (!path) return false;
    expansions += path->expansions;
    for (const auto& c : path->cells) {
      if (occ.at(c) != net.id) {
        occ.set(c, net.id);
        claimed.push_back(c);
      }
      absorb(c);
    }
  }
  return true;
}

/// The routed form of a net: its pins plus its wires, sorted, each cell
/// once.
NetRoute routed_net(const gen::RoutingNet& net, const std::vector<GridPoint>& wires) {
  NetRoute r;
  r.net_id = net.id;
  r.cells.assign(net.pins.begin(), net.pins.end());
  r.cells.insert(r.cells.end(), wires.begin(), wires.end());
  std::sort(r.cells.begin(), r.cells.end());
  r.cells.erase(std::unique(r.cells.begin(), r.cells.end()), r.cells.end());
  r.routed = true;
  return r;
}

/// Route one net on the occupancy grid; returns nullopt on failure.
/// Pins must already be owned by the net in `occ` (route_all reserves all
/// pins up front so earlier nets cannot route through them). On success
/// the net's wire cells are additionally marked; on failure only the wire
/// cells are released -- pins stay reserved.
std::optional<NetRoute> route_net(SearchArena& arena,
                                  const gen::RoutingNet& net, Occupancy& occ,
                                  const RouteCosts& costs, RouteStats& stats) {
  std::vector<GridPoint> claimed;
  if (!grow_tree(arena, net, occ, costs, nullptr, claimed, stats.expansions)) {
    for (const auto& c : claimed) occ.set(c, Occupancy::kFree);
    return std::nullopt;
  }
  return routed_net(net, claimed);
}

/// The negotiation state shared by every iteration: how many wires use
/// each grid point, the history penalty each overused point has built up,
/// the penalty field the searches price, and each net's current wires.
/// rip() and commit() keep the field at history + present * usage on every
/// point they touch; begin() rebuilds it whole.
class Negotiation {
 public:
  Negotiation(const gen::RoutingProblem& p, const Occupancy& grid,
              const RouterOptions& opt, RouteStats& stats)
      : p_(p),
        grid_(grid),
        opt_(opt),
        stats_(stats),
        usage_(points(grid), 0),
        history_(points(grid), 0.0),
        field_(points(grid), 0.0),
        wires_(p.nets.size()),
        have_route_(p.nets.size(), false),
        reachable_(p.nets.size(), true) {}

  /// Starts iteration `iter`: the present-sharing penalty is
  /// present_factor * max(iter + 1, kPresentGrowth^iter) -- linear for
  /// iterations 0-2, then geometric as in PathFinder -- and the field is
  /// repriced from everyone's current wires. Returns
  /// whether the iteration is a stall sweep: on stall, and always in the
  /// final two budget iterations, so a budget-limited run ends with the
  /// same cleanup around its contested points. A sweep clears the stall.
  bool begin(int iter) {
    present_ = opt_.present_factor *
               std::max<double>(iter + 1, std::pow(kPresentGrowth, iter));
    for (std::size_t i = 0; i < field_.size(); ++i)
      field_[i] = history_[i] + present_ * usage_[i];
    const bool sweep =
        stall_ >= kStallLimit || iter + 2 >= opt_.max_negotiation_iterations;
    if (sweep) stall_ = 0;
    return sweep;
  }

  /// Removes net `n`'s wires from the sharing counts and returns them.
  std::vector<GridPoint> rip(std::size_t n) {
    for (const auto& c : wires_[n]) {
      const std::size_t i = grid_.index(c);
      --usage_[i];
      field_[i] = history_[i] + present_ * usage_[i];
    }
    return std::exchange(wires_[n], {});
  }

  /// Installs the outcome of re-routing net `n`. A net that fails even
  /// with sharing allowed is walled in: it is never tried again.
  void commit(std::size_t n, bool ok, std::vector<GridPoint> cells) {
    have_route_[n] = ok;
    if (!ok) {
      reachable_[n] = false;
      return;
    }
    wires_[n] = std::move(cells);
    for (const auto& c : wires_[n]) {
      const std::size_t i = grid_.index(c);
      ++usage_[i];
      field_[i] = history_[i] + present_ * usage_[i];
    }
  }

  /// Closes an iteration. Returns true when no point is overused;
  /// otherwise tracks the stall, raises the history of every overused
  /// point and counts one rip-up round.
  bool end_iteration() {
    std::size_t over = 0;
    for (const int u : usage_) over += u > 1;
    obs::count("route.overflow", static_cast<std::int64_t>(over));
    if (over == 0) return true;
    if (over >= best_over_) {
      ++stall_;
    } else {
      best_over_ = over;
      stall_ = 0;
    }
    for (std::size_t i = 0; i < usage_.size(); ++i)
      if (usage_[i] > 1) history_[i] += opt_.history_increment;
    ++stats_.ripups;
    return false;
  }

  /// The rip-up set of the next iteration, in routing order. A stall
  /// sweep takes every net near an overused point; otherwise the set is
  /// the nets without a route plus the losing sharers of each overused
  /// point.
  std::vector<std::size_t> rip_up_set(const std::vector<std::size_t>& order,
                                      bool sweep) const;

  double present() const { return present_; }
  /// Wires using each point.
  const std::vector<int>& usage() const { return usage_; }
  bool has_route(std::size_t n) const { return have_route_[n]; }
  const std::vector<double>& field() const { return field_; }
  const std::vector<GridPoint>& wires(std::size_t n) const { return wires_[n]; }
  bool reachable(std::size_t n) const { return reachable_[n]; }

 private:
  // Stall escape: if the overused-point count stops shrinking, the frozen
  // clean routes are boxing the contested nets in. One sequential sweep
  // with live commits over every net near an overused point (a pin or
  // wire within kStallRadius in x and y, on either layer) lets the
  // contested nets and their neighbours shift and make room; nets far
  // from every contested point keep their wires. The counter, the radius
  // and the sweep's set depend only on the usage grid, so they are
  // thread-count independent.
  static constexpr int kStallLimit = 2;
  static constexpr int kStallRadius = 3;
  // Growth per iteration of the present-sharing penalty once it overtakes
  // the linear schedule. A knife edge: 1.5, 1.65, 1.7 and 1.75 each lose
  // a routing gate (EXPERIMENTS.md "Geometric present penalty").
  static constexpr double kPresentGrowth = 1.6;

  static std::size_t points(const Occupancy& g) {
    return static_cast<std::size_t>(g.width()) * static_cast<std::size_t>(g.height()) *
           static_cast<std::size_t>(g.layers());
  }

  const gen::RoutingProblem& p_;
  const Occupancy& grid_;  // for its point index
  const RouterOptions& opt_;
  RouteStats& stats_;
  std::vector<int> usage_;  // wires sharing each point
  std::vector<double> history_;
  std::vector<double> field_;
  std::vector<std::vector<GridPoint>> wires_;
  std::vector<bool> have_route_;
  std::vector<bool> reachable_;
  double present_ = 0.0;
  std::size_t best_over_ = static_cast<std::size_t>(-1);
  int stall_ = 0;
};

std::vector<std::size_t> Negotiation::rip_up_set(
    const std::vector<std::size_t>& order, bool sweep) const {
  std::vector<std::size_t> active;
  active.reserve(wires_.size());
  if (sweep) {
    // hot: the (x, y) cells within kStallRadius of an overused point.
    const int w = grid_.width(), h = grid_.height();
    const std::size_t plane = static_cast<std::size_t>(w) * static_cast<std::size_t>(h);
    std::vector<bool> hot(plane, false);
    for (std::size_t i = 0; i < usage_.size(); ++i) {
      if (usage_[i] <= 1) continue;
      const int xy = static_cast<int>(i % plane);
      const int x = xy % w, y = xy / w;
      for (int yy = std::max(0, y - kStallRadius); yy <= std::min(h - 1, y + kStallRadius);
           ++yy)
        for (int xx = std::max(0, x - kStallRadius);
             xx <= std::min(w - 1, x + kStallRadius); ++xx)
          hot[static_cast<std::size_t>(yy * w + xx)] = true;
    }
    auto near = [&](const std::vector<GridPoint>& cells) {
      return std::any_of(cells.begin(), cells.end(), [&](const GridPoint& c) {
        return hot[static_cast<std::size_t>(c.y * w + c.x)];
      });
    };
    for (const std::size_t n : order)
      if (reachable_[n] && (!have_route_[n] || near(p_.nets[n].pins) || near(wires_[n])))
        active.push_back(n);
    return active;
  }
  // The first net in routing order that uses a contested point holds its
  // route; everyone else on that point rips up. The hold policy keeps the
  // asymmetry that makes sequential negotiation converge -- without it,
  // all sharers would flee the same snapshot to the same alternative
  // point and oscillate. Clean nets keep their wires, which also bounds
  // per-iteration work.
  std::vector<std::int32_t> holder(usage_.size(), -1);
  for (const std::size_t n : order) {
    if (!reachable_[n]) continue;
    for (const auto& c : wires_[n]) {
      const std::size_t i = grid_.index(c);
      if (usage_[i] > 1 && holder[i] < 0) holder[i] = static_cast<std::int32_t>(n);
    }
  }
  for (const std::size_t n : order) {
    if (!reachable_[n]) continue;
    bool rip = !have_route_[n];
    for (std::size_t w = 0; !rip && w < wires_[n].size(); ++w) {
      const std::size_t i = grid_.index(wires_[n][w]);
      rip = usage_[i] > 1 && holder[i] != static_cast<std::int32_t>(n);
    }
    if (rip) active.push_back(n);
  }
  return active;
}

/// The search arenas of route_snapshot's chunks on worker lanes: a chunk
/// takes one and gives it back when done, so at most one per worker lane
/// is ever allocated instead of one per chunk. On small dies, allocating
/// and zeroing a grid-sized arena per chunk of eight nets was ~8% of
/// routing time (EXPERIMENTS.md "Cost per expansion"). An arena carries
/// nothing from one search to the next, so which one a chunk gets never
/// shows in a result.
class ArenaPool {
 public:
  std::unique_ptr<SearchArena> take() {
    const std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) return std::make_unique<SearchArena>();
    auto arena = std::move(free_.back());
    free_.pop_back();
    return arena;
  }
  void give(std::unique_ptr<SearchArena> arena) {
    const std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(arena));
  }

 private:
  std::mutex mu_;  // guards free_
  std::vector<std::unique_ptr<SearchArena>> free_;
};

/// The arenas a route_all call searches with: the live loop's, which the
/// calling thread's snapshot chunks also use, and the worker lanes' pool.
/// Each thread keeps one set across calls, so a design's routes do not
/// each allocate and fill grid-sized buffers: the arenas only grow, and a
/// search's generation stamp makes what an earlier call left behind
/// stale, so no result moves. A call takes the set from its thread and
/// puts it back when it returns; a nested call on the same thread finds
/// none held and makes its own.
class HeldArenas {
 public:
  HeldArenas() : arenas_(std::move(held())) {
    if (!arenas_) arenas_ = std::make_unique<Arenas>();
  }
  ~HeldArenas() { held() = std::move(arenas_); }
  HeldArenas(const HeldArenas&) = delete;
  HeldArenas& operator=(const HeldArenas&) = delete;

  SearchArena& live() { return arenas_->live; }
  ArenaPool& chunks() { return arenas_->chunks; }

 private:
  struct Arenas {
    SearchArena live;
    ArenaPool chunks;
  };
  static std::unique_ptr<Arenas>& held() {
    thread_local std::unique_ptr<Arenas> arenas;
    return arenas;
  }
  std::unique_ptr<Arenas> arenas_;
};

// Small rip-up sets (the negotiation tail, where a handful of nets
// contest a handful of cells) resolve with live Gauss-Seidel commits:
// each net sees the routes the previous nets just picked, which is
// what breaks the final stand-offs that snapshot routing can only
// escape through history build-up. A tail net that has a route is
// repaired around its contested cells rather than re-routed whole: only
// ~9% of a tail net's wire sits on overused cells. The trigger depends
// only on the set size, so the schedule is identical at any thread count.
constexpr std::size_t kSequentialTail = 16;

/// Routes a rip-up set of more than kSequentialTail nets against the
/// penalty field taken at the iteration's start, then commits the
/// attempts to `neg`.
void route_snapshot(const gen::RoutingProblem& p, const RouterOptions& opt,
                    const Occupancy& occ, const std::vector<std::size_t>& active,
                    Negotiation& neg, HeldArenas& arenas, RouteStats& stats) {
  struct NetAttempt {
    bool attempted = false;
    bool ok = false;
    std::vector<GridPoint> new_wires;
    long long expansions = 0;
  };
  std::vector<NetAttempt> attempts(p.nets.size());

  // Route the rip-up set concurrently. Each chunk works on private
  // copies of the occupancy grid (for the transient self-marks that let
  // a net reuse its growing tree) and the penalty field. Within a chunk
  // the nets run Gauss-Seidel: each net's old wires are unpriced and its
  // new wires priced into the chunk-private field before the next net
  // routes, so chunk-mates never pile onto the same corridor. Chunk
  // boundaries come from the grain, never the lane count, and the chunk
  // state depends only on the snapshot plus the chunk's own nets -- so
  // the result is identical no matter which worker routes which chunk.
  // The chunk pricing adds and subtracts `present` in place instead of
  // recomputing history + present * usage as rip() and commit() do; the
  // two round differently, so they are not interchangeable.
  const double present = neg.present();
  // A chunk on the calling thread searches in the live loop's arena, idle
  // while the snapshot routes; a chunk on a worker lane borrows one from
  // the pool.
  const auto caller = std::this_thread::get_id();
  constexpr std::int64_t kNetGrain = 8;
  util::parallel_for_chunks(
      0, static_cast<std::int64_t>(active.size()), kNetGrain,
      [&](std::int64_t cb, std::int64_t ce) {
        Occupancy socc = occ;
        std::vector<double> sextra = neg.field();
        std::unique_ptr<SearchArena> lent;
        if (std::this_thread::get_id() != caller) lent = arenas.chunks().take();
        SearchArena& chunk_arena = lent ? *lent : arenas.live();
        for (std::int64_t t = cb; t < ce; ++t) {
          const std::size_t n = active[static_cast<std::size_t>(t)];
          auto& at = attempts[n];
          at.attempted = true;
          for (const auto& c : neg.wires(n)) sextra[occ.index(c)] -= present;
          std::vector<GridPoint> claimed;
          at.ok = grow_tree(chunk_arena, p.nets[n], socc, opt.costs, &sextra,
                            claimed, at.expansions);
          for (const auto& c : claimed) socc.set(c, Occupancy::kFree);
          if (at.ok) {
            // Chunk-local commit: the next chunk-mate prices these wires.
            for (const auto& c : claimed) sextra[occ.index(c)] += present;
            at.new_wires = std::move(claimed);
          } else {
            // Re-price the old wires we removed above.
            for (const auto& c : neg.wires(n)) sextra[occ.index(c)] += present;
          }
        }
        if (lent) arenas.chunks().give(std::move(lent));
      });

  // Commit in ascending net order. Results are already fixed; this
  // order pins the stats.
  for (std::size_t n = 0; n < p.nets.size(); ++n) {
    auto& at = attempts[n];
    if (!at.attempted) continue;
    stats.expansions += at.expansions;
    neg.rip(n);
    neg.commit(n, at.ok, std::move(at.new_wires));
  }
}

}  // namespace

int count_vias(const NetRoute& net) {
  // Ordered by (off layer 0, y, x) -- routed_net's (layer, y, x) order on
  // a 2-layer die -- the cells are a layer-0 run and an upper run, each
  // sorted by (y, x), and one merge walk counts the positions both hold.
  // Cells in any other order are sorted into this one first.
  auto key = [](const GridPoint& c) { return std::tuple(c.layer != 0, c.y, c.x); };
  auto before = [&](const GridPoint& a, const GridPoint& b) { return key(a) < key(b); };
  std::vector<GridPoint> sorted;
  std::span<const GridPoint> cells = net.cells;
  if (!std::is_sorted(cells.begin(), cells.end(), before)) {
    sorted.assign(cells.begin(), cells.end());
    std::sort(sorted.begin(), sorted.end(), before);
    cells = sorted;
  }
  const auto upper = std::partition_point(cells.begin(), cells.end(),
                                          [](const GridPoint& c) { return c.layer == 0; });
  auto xy = [](const GridPoint& c) { return std::pair(c.y, c.x); };
  int vias = 0;
  for (auto a = cells.begin(), b = upper; a != upper && b != cells.end();) {
    if (xy(*a) < xy(*b)) {
      ++a;
    } else if (xy(*b) < xy(*a)) {
      ++b;
    } else {
      ++vias;
      const auto at = xy(*a);
      while (a != upper && xy(*a) == at) ++a;
      while (b != cells.end() && xy(*b) == at) ++b;
    }
  }
  return vias;
}

/// Negotiated-congestion routing (PathFinder-style). Pins are hard
/// obstacles for other nets throughout; wires may transiently share cells,
/// priced by growing present-sharing and history penalties until every
/// cell has one owner or the iteration budget runs out. A final pass then
/// gives each cell one owner: nets with clean wires keep them, and each
/// still-contested net gets one hard reroute.
///
/// Each iteration selects a rip-up set and routes it against the penalty
/// field taken at the iteration's start. Chunks of the set route
/// concurrently on worker-local copies of the grids -- Gauss-Seidel within
/// a chunk, Jacobi across chunks -- and commit in ascending net order.
/// Chunk boundaries are fixed by the grain, never the lane count, so the
/// solution is bit-identical at any L2L_THREADS value. Small rip-up sets
/// and stall sweeps run sequentially with live commits, which is what
/// finally untangles the last contested cells. A sweep and a net without a
/// route grow whole trees; a small set's routed nets get a branch repair
/// (repair_tree).
RouteSolution route_all(const gen::RoutingProblem& p, const RouterOptions& opt) {
  RouteSolution sol;
  RouteMetricsFlusher metrics(sol.stats);
  sol.nets.resize(p.nets.size());
  for (std::size_t n = 0; n < p.nets.size(); ++n)
    sol.nets[n].net_id = p.nets[n].id;

  Occupancy occ(p);  // obstacles only, plus pin reservations below
  for (const auto& net : p.nets)
    for (const auto& pin : net.pins) occ.set(pin, net.id);
  // Search scratch of the live loop and finalize, and of the parallel
  // chunks.
  HeldArenas arenas;
  SearchArena& arena = arenas.live();
  Negotiation neg(p, occ, opt, sol.stats);
  // repair_tree's per-point slot map.
  std::vector<std::int32_t> slot(
      static_cast<std::size_t>(p.width) * static_cast<std::size_t>(p.height) *
          static_cast<std::size_t>(p.num_layers),
      -1);

  // Route shortest-span nets first.
  std::vector<std::size_t> order(p.nets.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return net_span(p.nets[a]) < net_span(p.nets[b]);
  });

  for (int iter = 0; iter < opt.max_negotiation_iterations; ++iter) {
    // Resource guard: one step per negotiation iteration. On exhaustion
    // break to finalization -- clean nets keep their wires, so a cut-short
    // run still returns every net routed so far.
    if (opt.budget && (!opt.budget->consume(1) || opt.budget->exhausted())) {
      sol.status = opt.budget->status();
      if (sol.status.ok())
        sol.status = util::Status::budget("routing iteration budget exhausted");
      break;
    }
    sol.stats.negotiation_iterations = iter + 1;
    const bool sweep = neg.begin(iter);
    const auto active = neg.rip_up_set(order, sweep);
    obs::observe("route.ripup_set_size", static_cast<std::int64_t>(active.size()));

    if (sweep || (!active.empty() && active.size() <= kSequentialTail)) {
      for (const std::size_t n : active) {
        const bool repair = !sweep && neg.has_route(n);
        const auto old_wires = neg.rip(n);
        // The claimed wires own their cells only while the net grows.
        std::vector<GridPoint> claimed;
        bool ok;
        if (repair) {
          long long spent = 0;
          ok = repair_tree(arena, p.nets[n], occ, opt.costs, neg.field(), neg.usage(),
                           old_wires, slot, claimed, spent);
          ++sol.stats.repairs;
          sol.stats.repair_expansions += spent;
          sol.stats.expansions += spent;
        } else {
          ok = grow_tree(arena, p.nets[n], occ, opt.costs, &neg.field(), claimed,
                         sol.stats.expansions);
          for (const auto& c : claimed) occ.set(c, Occupancy::kFree);
        }
        neg.commit(n, ok, std::move(claimed));
      }
    } else {
      route_snapshot(p, opt, occ, active, neg, arenas, sol.stats);
    }
    if (neg.end_iteration()) break;
  }

  // Finalize with hard ownership. After convergence every wire is already
  // exclusive; if negotiation stalled (a few genuinely contested cells),
  // nets whose wires are clean keep them and the contested nets get one
  // hard reroute attempt each.
  Occupancy hard(p);
  for (const auto& net : p.nets)
    for (const auto& pin : net.pins) hard.set(pin, net.id);
  std::vector<std::size_t> contested;
  for (const std::size_t n : order) {
    if (!neg.reachable(n)) continue;
    const auto& wires = neg.wires(n);
    const bool clean = std::all_of(wires.begin(), wires.end(), [&](const GridPoint& c) {
      return hard.at(c) == Occupancy::kFree || hard.at(c) == p.nets[n].id;
    });
    if (!clean) {
      contested.push_back(n);
      continue;
    }
    for (const auto& c : wires) hard.set(c, p.nets[n].id);
    sol.nets[n] = routed_net(p.nets[n], wires);
  }
  for (const std::size_t n : contested) {
    auto r = route_net(arena, p.nets[n], hard, opt.costs, sol.stats);
    if (r) sol.nets[n] = std::move(*r);
  }

  for (const auto& net : sol.nets) {
    if (net.routed) {
      ++sol.stats.routed;
      sol.stats.total_wire += static_cast<double>(net.cells.size());
      sol.stats.total_vias += count_vias(net);
    } else {
      ++sol.stats.failed;
    }
  }
  return sol;
}

}  // namespace l2l::route
