#include "route/router.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace l2l::route {
namespace {

// Flushes the route's local RouteStats to the metrics registry on every
// exit path (convergence, stall, budget). Inner loops only touch
// sol.stats; obs sees one batched update per routing call.
class RouteMetricsFlusher {
 public:
  RouteMetricsFlusher(const RouteStats& stats, std::string_view span_name)
      : stats_(obs::enabled() ? &stats : nullptr), span_(span_name) {}
  ~RouteMetricsFlusher() {
    if (stats_ == nullptr) return;
    obs::count("route.calls");
    obs::count("route.nets_routed", stats_->routed);
    obs::count("route.nets_failed", stats_->failed);
    obs::count("route.ripups", stats_->ripups);
    obs::count("route.negotiation_iterations", stats_->negotiation_iterations);
    obs::count("route.expansions", stats_->expansions);
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
  NetRoute r;
  r.net_id = net.id;
  r.cells.assign(net.pins.begin(), net.pins.end());
  r.cells.insert(r.cells.end(), claimed.begin(), claimed.end());
  std::sort(r.cells.begin(), r.cells.end());
  r.cells.erase(std::unique(r.cells.begin(), r.cells.end()), r.cells.end());
  r.routed = true;
  return r;
}

}  // namespace

namespace {

/// Negotiated-congestion routing (PathFinder-style). Pins are hard
/// obstacles for other nets throughout; wires may transiently share cells,
/// priced by growing present-sharing and history penalties until every
/// cell has one owner (or the iteration budget runs out, after which the
/// still-shared nets fall back to hard sequential routing).
///
/// Each iteration selects a rip-up set (unrouted nets plus the losing
/// sharers of each overused cell; the first net in routing order holds)
/// and routes it against a snapshot of the usage/history state taken at
/// the iteration's start. Chunks of the set route concurrently on
/// worker-local copies of the grids -- Gauss-Seidel within a chunk,
/// Jacobi across chunks -- and commit in ascending net order. Chunk
/// boundaries are fixed by the grain, never the lane count, so the
/// solution is bit-identical at any L2L_THREADS value. Small rip-up sets
/// and stall-escape sweeps (every net near an overused cell) run
/// sequentially with live commits, which is what finally untangles the
/// last contested cells.
RouteSolution route_negotiated(const gen::RoutingProblem& p,
                               const RouterOptions& opt) {
  RouteSolution sol;
  RouteMetricsFlusher metrics(sol.stats, "route.negotiated");
  sol.nets.resize(p.nets.size());
  for (std::size_t n = 0; n < p.nets.size(); ++n)
    sol.nets[n].net_id = p.nets[n].id;

  Occupancy occ(p);  // obstacles only, plus pin reservations below
  for (const auto& net : p.nets)
    for (const auto& pin : net.pins) occ.set(pin, net.id);
  // Search scratch of the sequential tail, escalation and finalize loops;
  // each parallel chunk below owns its own.
  SearchArena arena;

  const std::size_t n_points = static_cast<std::size_t>(p.width) *
                               static_cast<std::size_t>(p.height) *
                               static_cast<std::size_t>(p.num_layers);
  auto idx = [&](const GridPoint& g) {
    return (static_cast<std::size_t>(g.layer) * static_cast<std::size_t>(p.height) +
            static_cast<std::size_t>(g.y)) * static_cast<std::size_t>(p.width) +
           static_cast<std::size_t>(g.x);
  };

  std::vector<int> usage(n_points, 0);        // wires sharing each cell
  std::vector<double> history(n_points, 0.0);
  std::vector<std::vector<GridPoint>> wires(p.nets.size());
  std::vector<bool> reachable(p.nets.size(), true);

  std::vector<std::size_t> order(p.nets.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return net_span(p.nets[a]) < net_span(p.nets[b]);
  });

  std::vector<double> extra_base(n_points, 0.0);
  std::vector<bool> have_route(p.nets.size(), false);
  // Stall escape: if the overused-cell count stops shrinking, the frozen
  // clean routes are boxing the contested nets in. One sequential sweep
  // with live commits over every net near an overused cell (a pin or wire
  // within kStallRadius in x and y, on either layer) lets the contested
  // nets and their neighbours shift and make room; nets far from every
  // contested cell keep their wires. The counter, the radius and the
  // sweep's set depend only on the usage grid, so they are thread-count
  // independent.
  constexpr int kStallLimit = 2;
  constexpr int kStallRadius = 3;
  // Small rip-up sets (the negotiation tail, where a handful of nets
  // contest a handful of cells) resolve with live Gauss-Seidel commits:
  // each net sees the routes the previous nets just picked, which is
  // what breaks the final stand-offs that snapshot routing can only
  // escape through history build-up. The trigger depends only on the
  // set size, so the schedule is identical at any thread count.
  constexpr std::size_t kSequentialTail = 16;
  std::size_t best_over = static_cast<std::size_t>(-1);
  int stall = 0;
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
    const double present = opt.present_factor * (iter + 1);
    // Snapshot penalty field for this iteration: everyone's current wires.
    for (std::size_t i = 0; i < n_points; ++i)
      extra_base[i] = history[i] + present * usage[i];

    // Escalate on stall, and always spend the final budget iterations
    // on stall sweeps so a budget-limited run ends with the same cleanup
    // around its contested cells.
    const bool escalate = stall >= kStallLimit ||
                          iter + 2 >= opt.max_negotiation_iterations;
    if (escalate) stall = 0;
    std::vector<std::size_t> active;
    active.reserve(p.nets.size());
    if (escalate) {
      // hot: the (x, y) cells within kStallRadius of an overused cell.
      const std::size_t plane = static_cast<std::size_t>(p.width) *
                                static_cast<std::size_t>(p.height);
      std::vector<bool> hot(plane, false);
      for (std::size_t i = 0; i < n_points; ++i) {
        if (usage[i] <= 1) continue;
        const int xy = static_cast<int>(i % plane);
        const int x = xy % p.width, y = xy / p.width;
        for (int yy = std::max(0, y - kStallRadius);
             yy <= std::min(p.height - 1, y + kStallRadius); ++yy)
          for (int xx = std::max(0, x - kStallRadius);
               xx <= std::min(p.width - 1, x + kStallRadius); ++xx)
            hot[static_cast<std::size_t>(yy * p.width + xx)] = true;
      }
      auto near = [&](const std::vector<GridPoint>& cells) {
        return std::any_of(cells.begin(), cells.end(), [&](const GridPoint& c) {
          return hot[static_cast<std::size_t>(c.y * p.width + c.x)];
        });
      };
      for (const std::size_t n : order)
        if (reachable[n] &&
            (!have_route[n] || near(p.nets[n].pins) || near(wires[n])))
          active.push_back(n);
    } else {
      // Rip-up set: nets not yet routed plus the *losing* sharers of each
      // overused cell. The first net in routing order that uses a
      // contested cell holds its route; everyone else on that cell rips
      // up. The hold policy keeps the asymmetry that makes sequential
      // negotiation converge — without it, all sharers would flee the same
      // snapshot to the same alternative cell and oscillate. Clean nets
      // keep their wires, which also bounds per-iteration work.
      std::vector<std::int32_t> holder(n_points, -1);
      for (const std::size_t n : order) {
        if (!reachable[n]) continue;
        for (const auto& c : wires[n]) {
          const std::size_t i = idx(c);
          if (usage[i] > 1 && holder[i] < 0)
            holder[i] = static_cast<std::int32_t>(n);
        }
      }
      for (const std::size_t n : order) {
        if (!reachable[n]) continue;
        bool rip = !have_route[n];
        for (std::size_t w = 0; !rip && w < wires[n].size(); ++w) {
          const std::size_t i = idx(wires[n][w]);
          rip = usage[i] > 1 && holder[i] != static_cast<std::int32_t>(n);
        }
        if (rip) active.push_back(n);
      }
    }

    obs::observe("route.ripup_set_size", static_cast<std::int64_t>(active.size()));

    if (escalate || (!active.empty() && active.size() <= kSequentialTail)) {
      for (const std::size_t n : active) {
        for (const auto& c : wires[n]) {
          const std::size_t i = idx(c);
          --usage[i];
          extra_base[i] = history[i] + present * usage[i];
        }
        wires[n].clear();
        // The claimed wires own their cells only while the net grows.
        std::vector<GridPoint> claimed;
        const bool ok = grow_tree(arena, p.nets[n], occ, opt.costs, &extra_base,
                                  claimed, sol.stats.expansions);
        for (const auto& c : claimed) occ.set(c, Occupancy::kFree);
        have_route[n] = ok;
        if (!ok) {
          reachable[n] = false;
          continue;
        }
        wires[n] = std::move(claimed);
        for (const auto& c : wires[n]) {
          const std::size_t i = idx(c);
          ++usage[i];
          extra_base[i] = history[i] + present * usage[i];
        }
      }
      std::size_t over_tail = 0;
      for (std::size_t i = 0; i < n_points; ++i) over_tail += usage[i] > 1;
      obs::count("route.overflow", static_cast<std::int64_t>(over_tail));
      if (over_tail == 0) break;
      if (over_tail >= best_over) {
        ++stall;
      } else {
        best_over = over_tail;
        stall = 0;
      }
      for (std::size_t i = 0; i < n_points; ++i)
        if (usage[i] > 1) history[i] += opt.history_increment;
      ++sol.stats.ripups;
      continue;
    }

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
    constexpr std::int64_t kNetGrain = 8;
    util::parallel_for_chunks(
        0, static_cast<std::int64_t>(active.size()), kNetGrain,
        [&](std::int64_t cb, std::int64_t ce) {
          Occupancy socc = occ;
          std::vector<double> sextra = extra_base;
          SearchArena chunk_arena;
          for (std::int64_t t = cb; t < ce; ++t) {
            const std::size_t n = active[static_cast<std::size_t>(t)];
            auto& at = attempts[n];
            at.attempted = true;
            for (const auto& c : wires[n]) sextra[idx(c)] -= present;
            std::vector<GridPoint> claimed;
            at.ok = grow_tree(chunk_arena, p.nets[n], socc, opt.costs, &sextra,
                              claimed, at.expansions);
            for (const auto& c : claimed) socc.set(c, Occupancy::kFree);
            if (at.ok) {
              // Chunk-local commit: the next chunk-mate prices these wires.
              for (const auto& c : claimed) sextra[idx(c)] += present;
              at.new_wires = std::move(claimed);
            } else {
              // Re-price the old wires we removed above.
              for (const auto& c : wires[n]) sextra[idx(c)] += present;
            }
          }
        });

    // Commit in ascending net order: update the sharing counts from the
    // attempts. Results are already fixed; this order pins the stats.
    for (std::size_t n = 0; n < p.nets.size(); ++n) {
      auto& at = attempts[n];
      if (!at.attempted) continue;
      sol.stats.expansions += at.expansions;
      for (const auto& c : wires[n]) --usage[idx(c)];
      wires[n].clear();
      have_route[n] = at.ok;
      if (!at.ok) {
        reachable[n] = false;  // blocked even with sharing: truly unroutable
        continue;
      }
      wires[n] = std::move(at.new_wires);
      for (const auto& c : wires[n]) ++usage[idx(c)];
    }
    std::size_t over = 0;
    for (std::size_t i = 0; i < n_points; ++i) over += usage[i] > 1;
    obs::count("route.overflow", static_cast<std::int64_t>(over));
    if (over == 0) break;
    if (over >= best_over) {
      ++stall;
    } else {
      best_over = over;
      stall = 0;
    }
    for (std::size_t i = 0; i < n_points; ++i)
      if (usage[i] > 1) history[i] += opt.history_increment;
    ++sol.stats.ripups;
  }

  // Finalize with hard ownership. After convergence every wire is already
  // exclusive; if negotiation stalled (a few genuinely contested cells),
  // nets whose wires are clean keep them and the contested nets get one
  // hard reroute attempt each.
  {
    Occupancy hard(p);
    for (const auto& net : p.nets)
      for (const auto& pin : net.pins) hard.set(pin, net.id);

    std::vector<std::size_t> contested;
    for (const std::size_t n : order) {
      if (!reachable[n]) continue;
      bool clean = true;
      for (const auto& c : wires[n])
        if (hard.at(c) != Occupancy::kFree && hard.at(c) != p.nets[n].id) {
          clean = false;
          break;
        }
      if (!clean) {
        contested.push_back(n);
        continue;
      }
      for (const auto& c : wires[n]) hard.set(c, p.nets[n].id);
      auto& out = sol.nets[n];
      out.cells.assign(p.nets[n].pins.begin(), p.nets[n].pins.end());
      out.cells.insert(out.cells.end(), wires[n].begin(), wires[n].end());
      std::sort(out.cells.begin(), out.cells.end());
      out.cells.erase(std::unique(out.cells.begin(), out.cells.end()),
                      out.cells.end());
      out.routed = true;
    }
    for (const std::size_t n : contested) {
      auto r = route_net(arena, p.nets[n], hard, opt.costs, sol.stats);
      if (r) sol.nets[n] = std::move(*r);
    }
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

}  // namespace

int count_vias(const NetRoute& net) {
  std::set<std::pair<int, int>> layer0, layer1;
  for (const auto& c : net.cells)
    (c.layer == 0 ? layer0 : layer1).insert({c.x, c.y});
  int vias = 0;
  for (const auto& xy : layer0)
    if (layer1.count(xy)) ++vias;
  return vias;
}

RouteSolution route_all(const gen::RoutingProblem& p, const RouterOptions& opt) {
  if (opt.negotiated) return route_negotiated(p, opt);
  RouteSolution sol;
  RouteMetricsFlusher metrics(sol.stats, "route.route_all");
  sol.nets.resize(p.nets.size());
  for (std::size_t n = 0; n < p.nets.size(); ++n)
    sol.nets[n].net_id = p.nets[n].id;

  Occupancy occ(p);
  // Reserve every pin up front so no net can route over another's pins.
  std::set<GridPoint> pin_cells;
  for (const auto& net : p.nets)
    for (const auto& pin : net.pins) {
      occ.set(pin, net.id);
      pin_cells.insert(pin);
    }

  // Route shortest-span nets first.
  std::vector<std::size_t> order(p.nets.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return net_span(p.nets[a]) < net_span(p.nets[b]);
  });

  SearchArena arena;
  std::vector<std::size_t> pending = order;
  for (int iter = 0; iter <= opt.max_ripup_iterations && !pending.empty();
       ++iter) {
    // Resource guard: one step per rip-up iteration (mirrors the
    // negotiated path). Nets already committed stay routed.
    if (opt.budget && (!opt.budget->consume(1) || opt.budget->exhausted())) {
      sol.status = opt.budget->status();
      if (sol.status.ok())
        sol.status = util::Status::budget("routing iteration budget exhausted");
      break;
    }
    std::vector<std::size_t> failed;
    for (const std::size_t n : pending) {
      auto r = route_net(arena, p.nets[n], occ, opt.costs, sol.stats);
      if (r) {
        sol.nets[n] = std::move(*r);
      } else {
        failed.push_back(n);
      }
    }
    if (failed.empty() || iter == opt.max_ripup_iterations) {
      pending = std::move(failed);
      break;
    }
    // Rip-up: free all wires (pins stay reserved) and retry with the
    // failed nets first. (A simple, effective course-scale scheme.)
    for (auto& net : sol.nets) {
      if (!net.routed) continue;
      for (const auto& c : net.cells)
        if (!pin_cells.count(c)) occ.set(c, Occupancy::kFree);
      net.routed = false;
      net.cells.clear();
      ++sol.stats.ripups;
    }
    std::vector<std::size_t> next = failed;
    for (const std::size_t n : order)
      if (std::find(failed.begin(), failed.end(), n) == failed.end())
        next.push_back(n);
    pending = std::move(next);
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
