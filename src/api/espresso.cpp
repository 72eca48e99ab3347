#include "api/espresso.hpp"

#include <sstream>

#include "api/detail.hpp"
#include "cache/cache.hpp"
#include "cubes/cover.hpp"
#include "espresso/minimize.hpp"
#include "espresso/pla.hpp"
#include "espresso/qm.hpp"

namespace l2l::api {

namespace {

constexpr std::uint64_t kEspressoFormatVersion = 1;

constexpr auto result_fields = [](auto& io, auto& r) {
  io.str(r.output);
  io.str(r.stats_output);
  io.i64(r.exit_code);
  cache::wire::status(io, r.status);
};

EspressoResult run_minimizer(const EspressoRequest& req) {
  EspressoResult res;
  espresso::Pla pla;
  try {
    pla = espresso::parse_pla(req.pla);
  } catch (const std::exception& e) {
    res.status = util::Status::parse_error(e.what());
    res.exit_code = util::exit_code_for(res.status);
    return res;
  }
  std::ostringstream stats;
  for (auto& out : pla.outputs) {
    const int before_cubes = out.on.size();
    const int before_lits = out.on.num_literals();
    if (req.exact) {
      out.on = espresso::exact_minimize(out.on, out.dc, nullptr);
    } else {
      espresso::MinimizeOptions mopt;
      mopt.single_pass = req.single_pass;
      out.on = espresso::minimize(out.on, out.dc, mopt, nullptr);
    }
    out.dc = cubes::Cover(pla.num_inputs);  // consumed by minimization
    if (req.show_stats)
      stats << "# " << out.name << ": " << before_cubes << " cubes/"
            << before_lits << " lits -> " << out.on.size() << "/"
            << out.on.num_literals() << "\n";
  }
  res.output = espresso::write_pla(pla);
  res.stats_output = stats.str();
  res.exit_code = util::kExitOk;
  return res;
}

}  // namespace

EspressoResult minimize_pla(const EspressoRequest& req) {
  std::optional<cache::CacheKey> key;
  if (req.cacheable()) {
    cache::Hasher h;
    h.u64(kEspressoFormatVersion)
        .boolean(req.exact)
        .boolean(req.single_pass)
        .boolean(req.show_stats);
    key = cache::CacheKey{"espresso", cache::digest_bytes(req.pla),
                          h.finish()};
  }
  return detail::cached_call<EspressoResult>(
      key, [&] { return run_minimizer(req); }, result_fields);
}

}  // namespace l2l::api
