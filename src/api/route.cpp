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

constexpr auto result_fields = [](auto& io, auto& r) {
  auto& sol = r.solution;
  io.list(sol.nets, [](auto& io, auto& net) {
    io.i64(net.net_id);
    io.boolean(net.routed);
    io.list(net.cells, [](auto& io, auto& c) {
      io.i64(c.x);
      io.i64(c.y);
      io.i64(c.layer);
    });
  });
  io.i64(sol.stats.routed);
  io.i64(sol.stats.failed);
  io.i64(sol.stats.ripups);
  io.i64(sol.stats.negotiation_iterations);
  io.f64(sol.stats.total_wire);
  io.i64(sol.stats.total_vias);
  io.i64(sol.stats.expansions);
  io.i64(sol.stats.repairs);
  io.i64(sol.stats.repair_expansions);
  cache::wire::status(io, sol.status);
};

}  // namespace

RouteResult route_nets(const gen::RoutingProblem& problem,
                       const RouteRequest& req) {
  std::optional<cache::CacheKey> key;
  if (req.cacheable() && req.options.budget == nullptr)
    key = cache::CacheKey{"route", routing_problem_digest(problem),
                          config_digest(req.options)};
  return detail::cached_call<RouteResult>(
      key, [&] { return RouteResult{route::route_all(problem, req.options)}; },
      result_fields);
}

cache::Digest128 routing_problem_digest(const gen::RoutingProblem& p) {
  return cache::digest_bytes(route::write_problem(p));
}

}  // namespace l2l::api
