#include "api/route.hpp"

#include "api/detail.hpp"
#include "cache/cache.hpp"
#include "route/solution.hpp"

namespace l2l::api {

namespace {

constexpr std::uint64_t kRouteFormatVersion = 4;

cache::Digest128 config_digest(const route::RouterOptions& opt) {
  cache::Hasher h;
  h.u64(kRouteFormatVersion)
      .f64(opt.costs.wire)
      .f64(opt.costs.via)
      .f64(opt.costs.bend)
      .f64(opt.costs.wrong_way)
      .boolean(opt.costs.preferred_directions)
      .boolean(opt.costs.use_astar)
      .i32(opt.max_negotiation_iterations)
      .f64(opt.present_factor)
      .f64(opt.history_increment);
  return h.finish();
}

std::string serialize(const RouteResult& res) {
  const route::RouteSolution& sol = res.solution;
  std::string out;
  cache::append_i64(out, static_cast<std::int64_t>(sol.nets.size()));
  for (const auto& net : sol.nets) {
    cache::append_i64(out, net.net_id);
    cache::append_i64(out, net.routed ? 1 : 0);
    cache::append_i64(out, static_cast<std::int64_t>(net.cells.size()));
    for (const auto& c : net.cells) {
      cache::append_i64(out, c.x);
      cache::append_i64(out, c.y);
      cache::append_i64(out, c.layer);
    }
  }
  cache::append_i64(out, sol.stats.routed);
  cache::append_i64(out, sol.stats.failed);
  cache::append_i64(out, sol.stats.ripups);
  cache::append_i64(out, sol.stats.negotiation_iterations);
  cache::append_f64(out, sol.stats.total_wire);
  cache::append_i64(out, sol.stats.total_vias);
  cache::append_i64(out, sol.stats.expansions);
  cache::append_i64(out, sol.stats.repairs);
  cache::append_i64(out, sol.stats.repair_expansions);
  detail::append_status(out, sol.status);
  return out;
}

bool deserialize(std::string_view bytes, RouteResult& res) {
  route::RouteSolution& sol = res.solution;
  cache::RecordReader in(bytes);
  std::int64_t num_nets = 0;
  if (!in.next_i64(num_nets) || num_nets < 0) return false;
  sol.nets.clear();
  sol.nets.reserve(static_cast<std::size_t>(num_nets));
  for (std::int64_t k = 0; k < num_nets; ++k) {
    route::NetRoute net;
    std::int64_t id = 0, routed = 0, cells = 0;
    if (!in.next_i64(id) || !in.next_i64(routed) || !in.next_i64(cells) ||
        cells < 0)
      return false;
    net.net_id = static_cast<int>(id);
    net.routed = routed != 0;
    net.cells.reserve(static_cast<std::size_t>(cells));
    for (std::int64_t c = 0; c < cells; ++c) {
      std::int64_t x = 0, y = 0, layer = 0;
      if (!in.next_i64(x) || !in.next_i64(y) || !in.next_i64(layer))
        return false;
      net.cells.push_back({static_cast<int>(x), static_cast<int>(y),
                           static_cast<int>(layer)});
    }
    sol.nets.push_back(std::move(net));
  }
  std::int64_t routed = 0, failed = 0, ripups = 0, iters = 0, vias = 0,
               expansions = 0, repairs = 0, repair_expansions = 0;
  if (!in.next_i64(routed) || !in.next_i64(failed) || !in.next_i64(ripups) ||
      !in.next_i64(iters) || !in.next_f64(sol.stats.total_wire) ||
      !in.next_i64(vias) || !in.next_i64(expansions) || !in.next_i64(repairs) ||
      !in.next_i64(repair_expansions) ||
      !detail::read_status(in, sol.status) || !in.complete())
    return false;
  sol.stats.routed = static_cast<int>(routed);
  sol.stats.failed = static_cast<int>(failed);
  sol.stats.ripups = static_cast<int>(ripups);
  sol.stats.negotiation_iterations = static_cast<int>(iters);
  sol.stats.total_vias = static_cast<int>(vias);
  sol.stats.expansions = expansions;
  sol.stats.repairs = static_cast<int>(repairs);
  sol.stats.repair_expansions = repair_expansions;
  return true;
}

}  // namespace

RouteResult route_nets(const gen::RoutingProblem& problem,
                       const RouteRequest& req) {
  std::optional<cache::CacheKey> key;
  if (req.cacheable() && req.options.budget == nullptr)
    key = cache::CacheKey{"route", routing_problem_digest(problem),
                          config_digest(req.options)};
  return detail::cached_call<RouteResult>(
      key, deserialize,
      [&] { return RouteResult{route::route_all(problem, req.options)}; },
      serialize);
}

cache::Digest128 routing_problem_digest(const gen::RoutingProblem& p) {
  return cache::digest_bytes(route::write_problem(p));
}

}  // namespace l2l::api
