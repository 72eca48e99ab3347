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

std::string serialize(const EspressoResult& res) {
  std::string out;
  cache::append_record(out, res.output);
  cache::append_record(out, res.stats_output);
  cache::append_i64(out, res.exit_code);
  detail::append_status(out, res.status);
  return out;
}

bool deserialize(std::string_view bytes, EspressoResult& res) {
  cache::RecordReader in(bytes);
  std::int64_t exit_code = 0;
  if (!in.next_string(res.output) || !in.next_string(res.stats_output) ||
      !in.next_i64(exit_code) || !detail::read_status(in, res.status) ||
      !in.complete())
    return false;
  res.exit_code = static_cast<int>(exit_code);
  return true;
}

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
      key, deserialize, [&] { return run_minimizer(req); }, serialize);
}

}  // namespace l2l::api
