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

std::string serialize_route(const RouteGradeResult& res) {
  const grader::RouteGrade& g = res.grade;
  std::string out;
  cache::append_i64(out, static_cast<std::int64_t>(g.nets.size()));
  for (const auto& net : g.nets) {
    cache::append_i64(out, net.net_id);
    cache::append_i64(out, net.legal ? 1 : 0);
    cache::append_record(out, net.reason);
    cache::append_i64(out, net.wirelength);
    cache::append_i64(out, net.vias);
  }
  cache::append_i64(out, g.legal_nets);
  cache::append_i64(out, g.total_nets);
  cache::append_i64(out, g.total_wirelength);
  cache::append_i64(out, g.total_vias);
  cache::append_f64(out, g.score);
  cache::append_record(out, g.report);
  detail::append_diagnostics(out, g.diagnostics);
  detail::append_diagnostics(out, g.lint);
  detail::append_diagnostics(out, g.sema);
  detail::append_status(out, g.status);
  return out;
}

bool deserialize_route(std::string_view bytes, RouteGradeResult& res) {
  cache::RecordReader in(bytes);
  grader::RouteGrade& g = res.grade;
  std::int64_t num_nets = 0;
  if (!in.next_i64(num_nets) || num_nets < 0) return false;
  g.nets.clear();
  for (std::int64_t k = 0; k < num_nets; ++k) {
    grader::NetGrade net;
    std::int64_t id = 0, legal = 0, wirelength = 0, vias = 0;
    if (!in.next_i64(id) || !in.next_i64(legal) ||
        !in.next_string(net.reason) || !in.next_i64(wirelength) ||
        !in.next_i64(vias))
      return false;
    net.net_id = static_cast<int>(id);
    net.legal = legal != 0;
    net.wirelength = static_cast<int>(wirelength);
    net.vias = static_cast<int>(vias);
    g.nets.push_back(std::move(net));
  }
  std::int64_t legal_nets = 0, total_nets = 0, wirelength = 0, vias = 0;
  if (!in.next_i64(legal_nets) || !in.next_i64(total_nets) ||
      !in.next_i64(wirelength) || !in.next_i64(vias) ||
      !in.next_f64(g.score) || !in.next_string(g.report) ||
      !detail::read_diagnostics(in, g.diagnostics) ||
      !detail::read_diagnostics(in, g.lint) ||
      !detail::read_diagnostics(in, g.sema) ||
      !detail::read_status(in, g.status))
    return false;
  g.legal_nets = static_cast<int>(legal_nets);
  g.total_nets = static_cast<int>(total_nets);
  g.total_wirelength = static_cast<int>(wirelength);
  g.total_vias = static_cast<int>(vias);
  return in.complete();
}

std::string serialize_place(const PlaceGradeResult& res) {
  const grader::PlaceGrade& g = res.grade;
  std::string out;
  cache::append_i64(out, g.legal ? 1 : 0);
  cache::append_record(out, g.reason);
  cache::append_f64(out, g.hpwl);
  cache::append_f64(out, g.quality_ratio);
  cache::append_f64(out, g.score);
  cache::append_record(out, g.report);
  detail::append_diagnostics(out, g.diagnostics);
  detail::append_diagnostics(out, g.lint);
  detail::append_diagnostics(out, g.sema);
  return out;
}

bool deserialize_place(std::string_view bytes, PlaceGradeResult& res) {
  cache::RecordReader in(bytes);
  grader::PlaceGrade& g = res.grade;
  std::int64_t legal = 0;
  if (!in.next_i64(legal) || !in.next_string(g.reason) ||
      !in.next_f64(g.hpwl) || !in.next_f64(g.quality_ratio) ||
      !in.next_f64(g.score) || !in.next_string(g.report) ||
      !detail::read_diagnostics(in, g.diagnostics) ||
      !detail::read_diagnostics(in, g.lint) ||
      !detail::read_diagnostics(in, g.sema))
    return false;
  g.legal = legal != 0;
  return in.complete();
}

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
      key, deserialize_route,
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
      serialize_route);
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
      key, deserialize_place,
      [&] {
        PlaceGradeResult res;
        res.grade = grader::grade_placement_text(problem, grid, req.submission,
                                                 req.reference_hpwl);
        return res;
      },
      serialize_place);
}

}  // namespace l2l::api
