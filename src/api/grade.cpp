#include "api/grade.hpp"

#include "api/detail.hpp"
#include "api/place.hpp"
#include "api/route.hpp"
#include "cache/cache.hpp"
#include "util/budget.hpp"

namespace l2l::api {

namespace {

// v2: Grade records carry the score-neutral sema diagnostics block
// after the lint block; bumping the version invalidates v1 cache
// entries instead of misreading them.
constexpr std::uint64_t kGradeFormatVersion = 2;
// v3: grader.place records drop the always-ok status record. Route
// records keep kGradeFormatVersion and their v2 layout.
constexpr std::uint64_t kPlaceGradeFormatVersion = 3;

// Both grade records end with the score-neutral diagnostic blocks.
constexpr auto diagnostic_blocks = [](auto& io, auto& g) {
  io.list(g.diagnostics, cache::wire::diagnostic);
  io.list(g.lint, cache::wire::diagnostic);
  io.list(g.sema, cache::wire::diagnostic);
};

constexpr auto route_grade_fields = [](auto& io, auto& r) {
  auto& g = r.grade;
  io.list(g.nets, [](auto& io, auto& net) {
    io.i64(net.net_id);
    io.boolean(net.legal);
    io.str(net.reason);
    io.i64(net.wirelength);
    io.i64(net.vias);
  });
  io.i64(g.legal_nets);
  io.i64(g.total_nets);
  io.i64(g.total_wirelength);
  io.i64(g.total_vias);
  io.f64(g.score);
  io.str(g.report);
  diagnostic_blocks(io, g);
  cache::wire::status(io, g.status);
};

constexpr auto place_grade_fields = [](auto& io, auto& r) {
  auto& g = r.grade;
  io.boolean(g.legal);
  io.str(g.reason);
  io.f64(g.hpwl);
  io.f64(g.quality_ratio);
  io.f64(g.score);
  io.str(g.report);
  diagnostic_blocks(io, g);
};

}  // namespace

RouteGradeResult grade_route_submission(const gen::RoutingProblem& problem,
                                        const RouteGradeRequest& req) {
  return grade_route_submission(problem, routing_problem_digest(problem), req);
}

RouteGradeResult grade_route_submission(const gen::RoutingProblem& problem,
                                        const cache::Digest128& problem_digest,
                                        const RouteGradeRequest& req) {
  std::optional<cache::CacheKey> key;
  if (req.cacheable()) {
    cache::Hasher h;
    h.u64(kGradeFormatVersion)
        .u64(problem_digest.hi)
        .u64(problem_digest.lo)
        .i64(req.step_limit);
    key = cache::CacheKey{"grader.route", cache::digest_bytes(req.submission),
                          h.finish()};
  }
  return detail::cached_call<RouteGradeResult>(
      key,
      [&] {
        RouteGradeResult res;
        util::Budget budget;
        const util::Budget* guard = nullptr;
        if (req.step_limit >= 0 || req.time_limit_ms >= 0) {
          if (req.step_limit >= 0) budget.set_step_limit(req.step_limit);
          if (req.time_limit_ms >= 0) budget.set_deadline_ms(req.time_limit_ms);
          guard = &budget;
        }
        res.grade = grader::grade_routing_text(problem, req.submission, guard);
        return res;
      },
      route_grade_fields);
}

PlaceGradeResult grade_place_submission(const gen::PlacementProblem& problem,
                                        const place::Grid& grid,
                                        const PlaceGradeRequest& req) {
  return grade_place_submission(problem, grid,
                                placement_problem_digest(problem), req);
}

PlaceGradeResult grade_place_submission(const gen::PlacementProblem& problem,
                                        const place::Grid& grid,
                                        const cache::Digest128& problem_digest,
                                        const PlaceGradeRequest& req) {
  std::optional<cache::CacheKey> key;
  if (req.cacheable()) {
    cache::Hasher h;
    h.u64(kPlaceGradeFormatVersion)
        .u64(problem_digest.hi)
        .u64(problem_digest.lo)
        .i32(grid.rows)
        .i32(grid.sites_per_row)
        .f64(grid.width)
        .f64(grid.height)
        .f64(req.reference_hpwl);
    key = cache::CacheKey{"grader.place", cache::digest_bytes(req.submission),
                          h.finish()};
  }
  return detail::cached_call<PlaceGradeResult>(
      key,
      [&] {
        PlaceGradeResult res;
        res.grade = grader::grade_placement_text(problem, grid, req.submission,
                                                 req.reference_hpwl);
        return res;
      },
      place_grade_fields);
}

}  // namespace l2l::api
