#include "api/place.hpp"

#include "api/detail.hpp"
#include "cache/cache.hpp"
#include "place/wirelength.hpp"

namespace l2l::api {

namespace {

constexpr std::uint64_t kPlaceFormatVersion = 1;

cache::Digest128 config_digest(const PlaceRequest& req) {
  cache::Hasher h;
  h.u64(kPlaceFormatVersion)
      .i32(req.grid.rows)
      .i32(req.grid.sites_per_row)
      .f64(req.grid.width)
      .f64(req.grid.height)
      .i32(static_cast<int>(req.options.net_model))
      .i32(req.options.min_region_cells)
      .i32(req.options.max_levels)
      .f64(req.options.cg_tolerance);
  return h.finish();
}

// The column list's count also sizes the row list that follows it.
constexpr auto result_fields = [](auto& io, auto& r) {
  constexpr auto site = [](auto& io, auto& v) { io.i64(v); };
  io.list(r.placement.col, site);
  io.elements(r.placement.row, r.placement.col.size(), site);
  io.f64(r.hpwl);
};

}  // namespace

PlaceResult place_and_legalize(const gen::PlacementProblem& problem,
                               const PlaceRequest& req) {
  std::optional<cache::CacheKey> key;
  if (req.cacheable() && req.options.budget == nullptr)
    key = cache::CacheKey{"place", placement_problem_digest(problem),
                          config_digest(req)};
  return detail::cached_call<PlaceResult>(
      key,
      [&] {
        PlaceResult res;
        const auto continuous = place::place_quadratic(problem, req.options);
        res.placement = place::legalize(problem, continuous, req.grid);
        res.hpwl = place::hpwl(problem, res.placement.to_continuous(req.grid));
        return res;
      },
      result_fields);
}

cache::Digest128 placement_problem_digest(const gen::PlacementProblem& p) {
  cache::Hasher h;
  h.i32(p.num_cells).f64(p.width).f64(p.height);
  h.i64(static_cast<std::int64_t>(p.pads.size()));
  for (const auto& pad : p.pads) h.f64(pad.x).f64(pad.y).str(pad.name);
  h.i64(static_cast<std::int64_t>(p.nets.size()));
  for (const auto& net : p.nets) {
    h.i64(static_cast<std::int64_t>(net.size()));
    for (const auto& pin : net) h.boolean(pin.is_pad).i32(pin.index);
  }
  return h.finish();
}

}  // namespace l2l::api
