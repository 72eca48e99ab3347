#include "api/sat.hpp"

#include <string>

#include "api/detail.hpp"
#include "cache/cache.hpp"
#include "sat/dimacs.hpp"
#include "util/budget.hpp"

namespace l2l::api {

namespace {

constexpr std::uint64_t kSatFormatVersion = 1;

constexpr auto result_fields = [](auto& io, auto& r) {
  io.str(r.output);
  io.i64(r.exit_code);
  cache::wire::status(io, r.status);
};

SatResult run_solver(const SatRequest& req) {
  SatResult res;
  sat::SolverOptions opt = req.options;
  util::Budget budget;
  if (req.time_limit_ms >= 0 || req.prop_limit >= 0) {
    if (req.time_limit_ms >= 0) budget.set_deadline_ms(req.time_limit_ms);
    if (req.prop_limit >= 0) budget.set_step_limit(req.prop_limit);
    opt.budget = &budget;
  }

  const sat::ParsedDimacs parsed = sat::parse_dimacs_lenient(req.dimacs);
  if (!parsed.clean()) {
    res.status =
        util::Status::parse_error(sat::defect_text(parsed.defects.front()));
    res.exit_code = util::exit_code_for(res.status);
    return res;
  }
  sat::Solver solver(opt);
  sat::LBool result = sat::LBool::kFalse;
  if (sat::load_into_solver(parsed, solver)) result = solver.solve();
  res.output = sat::result_text(solver, result);
  if (req.show_stats) {
    const auto& s = solver.stats();
    res.output += "c decisions " + std::to_string(s.decisions) +
                  " propagations " + std::to_string(s.propagations) +
                  " conflicts " + std::to_string(s.conflicts) +
                  " restarts " + std::to_string(s.restarts) + " learnts " +
                  std::to_string(s.learnt_clauses) + "\n";
  }
  if (result == sat::LBool::kTrue) {
    res.exit_code = util::kExitSat;
  } else if (result == sat::LBool::kFalse) {
    res.exit_code = util::kExitUnsat;
  } else if (!solver.stop_reason().ok()) {
    res.status = solver.stop_reason();
    res.exit_code = util::exit_code_for(res.status);
  } else {
    res.exit_code = util::kExitOk;
  }
  return res;
}

}  // namespace

SatResult solve_sat(const SatRequest& req) {
  // A wall-clock deadline (or an external budget the caller wired into
  // options) makes the stopping point non-reproducible: bypass the cache.
  std::optional<cache::CacheKey> key;
  if (req.cacheable() && req.options.budget == nullptr) {
    cache::Hasher h;
    h.u64(kSatFormatVersion)
        .boolean(req.options.use_vsids)
        .boolean(req.options.use_restarts)
        .boolean(req.options.use_phase_saving)
        .f64(req.options.var_decay)
        .f64(req.options.clause_decay)
        .i32(req.options.restart_base)
        .i64(req.options.conflict_limit)
        .i64(req.prop_limit)
        .boolean(req.show_stats);
    key = cache::CacheKey{"sat", cache::digest_bytes(req.dimacs), h.finish()};
  }
  return detail::cached_call<SatResult>(
      key, [&] { return run_solver(req); }, result_fields);
}

}  // namespace l2l::api
