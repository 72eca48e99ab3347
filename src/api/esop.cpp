#include "api/esop.hpp"

#include <sstream>
#include <string>
#include <vector>

#include "api/detail.hpp"
#include "cache/cache.hpp"
#include "cubes/cover.hpp"
#include "esop/esop.hpp"
#include "espresso/pla.hpp"
#include "tt/truth_table.hpp"
#include "util/budget.hpp"

namespace l2l::api {

namespace {

constexpr std::uint64_t kEsopFormatVersion = 1;

constexpr auto result_fields = [](auto& io, auto& r) {
  io.str(r.output);
  io.str(r.stats_output);
  io.i64(r.terms);
  io.boolean(r.minimal);
  io.i64(r.exit_code);
  cache::wire::status(io, r.status);
};

/// One function to synthesize: a name plus its care truth table.
struct Job {
  std::string name;
  tt::TruthTable f;
  int ignored_dc_cubes = 0;
};

/// Raw truth-table input: exactly one non-comment line of 0/1 characters
/// whose length is a power of two (LSB first, like tt::from_bits).
util::Status parse_truth_table_input(const std::string& text,
                                     std::vector<Job>& jobs) {
  std::istringstream in(text);
  std::string line, bits;
  while (std::getline(in, line)) {
    // Trim whitespace; skip blanks and '#' comments.
    const auto b = line.find_first_not_of(" \t\r");
    if (b == std::string::npos || line[b] == '#') continue;
    const auto e = line.find_last_not_of(" \t\r");
    if (!bits.empty())
      return util::Status::parse_error(
          "esop: truth-table input must be a single row of bits");
    bits = line.substr(b, e - b + 1);
  }
  if (bits.empty())
    return util::Status::parse_error("esop: empty input");
  for (const char c : bits)
    if (c != '0' && c != '1')
      return util::Status::parse_error(
          "esop: truth-table row may contain only 0/1");
  // Reject oversized rows BEFORE materializing the table: length must be
  // a power of two no larger than 2^kMaxVars.
  const std::size_t len = bits.size();
  if ((len & (len - 1)) != 0)
    return util::Status::parse_error(
        "esop: truth-table row length must be a power of two");
  if (len > (std::size_t{1} << esop::kMaxVars))
    return util::Status::invalid(
        "esop: truth-table row implies more than " +
        std::to_string(esop::kMaxVars) + " variables");
  jobs.push_back(Job{"f", tt::TruthTable::from_bits(bits), 0});
  return util::Status::okay();
}

/// PLA input: every output becomes one job. Don't-care cubes carry no
/// exact-ESOP semantics here; they are treated as OFF and counted so the
/// stats block can say so.
util::Status parse_pla_input(const std::string& text, std::vector<Job>& jobs) {
  espresso::Pla pla;
  try {
    pla = espresso::parse_pla(text);
  } catch (const std::exception& e) {
    return util::Status::parse_error(e.what());
  }
  // Arity gate BEFORE any 2^n truth-table allocation.
  if (pla.num_inputs > esop::kMaxVars)
    return util::Status::invalid(
        "esop: PLA has " + std::to_string(pla.num_inputs) +
        " inputs, above the cap of " + std::to_string(esop::kMaxVars));
  if (pla.outputs.empty())
    return util::Status::parse_error("esop: PLA has no outputs");
  for (const auto& out : pla.outputs)
    jobs.push_back(Job{out.name, out.on.to_truth_table(),
                       out.dc.size()});
  return util::Status::okay();
}

/// True when the text looks like a PLA (any line starting with '.').
bool looks_like_pla(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto b = line.find_first_not_of(" \t\r");
    if (b != std::string::npos && line[b] == '.') return true;
  }
  return false;
}

EsopResult run_synthesis(const EsopRequest& req) {
  EsopResult res;
  std::vector<Job> jobs;
  res.status = looks_like_pla(req.input)
                   ? parse_pla_input(req.input, jobs)
                   : parse_truth_table_input(req.input, jobs);
  if (!res.status.ok()) {
    res.exit_code = util::exit_code_for(res.status);
    return res;
  }

  util::Budget budget;
  const bool guarded = req.time_limit_ms >= 0 || req.prop_limit >= 0;
  if (req.time_limit_ms >= 0) budget.set_deadline_ms(req.time_limit_ms);
  if (req.prop_limit >= 0) budget.set_step_limit(req.prop_limit);

  esop::SynthesisOptions opt;
  opt.max_terms = req.max_terms;
  opt.conflict_limit = req.conflict_limit;
  opt.budget = guarded ? &budget : nullptr;

  const int num_inputs = jobs.front().f.num_vars();
  std::ostringstream body, stats;
  int total_rows = 0;
  bool all_minimal = true;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const Job& job = jobs[k];
    const auto r = esop::synthesize_minimum(job.f, opt);
    if (req.show_stats) {
      stats << "# " << job.name << ": ";
      if (r.status.ok()) {
        stats << r.terms << " terms (minimal)";
      } else {
        stats << "partial, best " << (r.upper_bound >= 0 ? r.terms : 0)
              << " terms, minimum in [" << r.lower_bound << ","
              << (r.upper_bound >= 0 ? std::to_string(r.upper_bound) : "?")
              << "]";
      }
      stats << ", queries sat=" << r.stats.queries_sat
            << " unsat=" << r.stats.queries_unsat
            << " undef=" << r.stats.queries_undef
            << ", conflicts=" << r.stats.conflicts;
      if (job.ignored_dc_cubes > 0)
        stats << ", dc-cubes-ignored=" << job.ignored_dc_cubes;
      stats << "\n";
    }
    // Render this output's rows with a one-hot output plane.
    std::string plane(jobs.size(), '0');
    plane[k] = '1';
    for (const auto& c : r.cover.cubes()) {
      body << c.to_string() << " " << plane << "\n";
      ++total_rows;
    }
    res.terms += r.terms;
    all_minimal = all_minimal && r.minimal;
    if (!r.status.ok()) {
      // Stop at the first failing output: the report stays deterministic
      // and the exit code reflects the first problem encountered.
      res.status = r.status;
      res.exit_code = util::exit_code_for(res.status);
      res.stats_output = stats.str();
      res.minimal = false;
      return res;
    }
  }

  std::ostringstream out;
  out << ".i " << num_inputs << "\n.o " << jobs.size() << "\n";
  if (looks_like_pla(req.input) && jobs.size() >= 1) {
    out << ".ob";
    for (const auto& job : jobs) out << " " << job.name;
    out << "\n";
  }
  out << ".type esop\n.p " << total_rows << "\n" << body.str() << ".e\n";
  res.output = out.str();
  res.stats_output = stats.str();
  res.minimal = all_minimal;
  res.exit_code = util::kExitOk;
  return res;
}

}  // namespace

EsopResult synthesize_esop(const EsopRequest& req) {
  // A wall-clock deadline makes the stopping point non-reproducible:
  // never store or replay such results. The deterministic guards
  // (max_terms, conflict_limit, prop_limit) are config-digest inputs.
  std::optional<cache::CacheKey> key;
  if (req.cacheable()) {
    cache::Hasher h;
    h.u64(kEsopFormatVersion)
        .i32(req.max_terms)
        .i64(req.conflict_limit)
        .i64(req.prop_limit)
        .boolean(req.show_stats);
    key = cache::CacheKey{"esop", cache::digest_bytes(req.input), h.finish()};
  }
  return detail::cached_call<EsopResult>(
      key, [&] { return run_synthesis(req); }, result_fields);
}

}  // namespace l2l::api
