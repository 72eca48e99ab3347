// minisat_lite: DIMACS CNF SAT solver front-end (the MOOC's miniSAT [8]
// portal workalike). Reads DIMACS from a file argument or stdin; prints
// SATISFIABLE with a model line, or UNSATISFIABLE, plus solver statistics.
// The engine call goes through api::solve_sat, so repeated identical
// inputs replay from the result cache byte-for-byte.
//
// Flags: --no-vsids --no-restarts (heuristic ablations), --stats,
// --time-limit-ms N / --prop-limit N (resource guards; an INDETERMINATE
// result from an exhausted guard exits 4), --lint (run the L2L-Cxxx rule
// pack first; findings print as 'c lint:' comment lines and lint errors
// exit 3 before the solver starts), plus the shared pack from
// tools/common_cli.hpp (--metrics/--trace/--no-cache/--cache-dir).
//
// Exit codes: 10 SAT, 20 UNSAT (the MiniSat convention), plus the shared
// convention for everything else: 2 usage/IO, 3 malformed input, 4 budget
// exceeded, 5 internal error.

#include <iostream>
#include <string>

#include "api/sat.hpp"
#include "common_cli.hpp"
#include "lint/lint.hpp"
#include "obs/trace.hpp"
#include "sema/sema.hpp"
#include "util/arg_parser.hpp"
#include "util/status.hpp"

int main(int argc, char** argv) try {
  l2l::obs::ExportOnExit obs_export;
  l2l::api::SatRequest req;
  l2l::tools::CommonFlags common;
  bool no_vsids = false;
  bool no_restarts = false;

  l2l::util::ArgParser parser;
  l2l::tools::add_common_flags(parser, common, obs_export);
  l2l::tools::add_cache_flags(parser, common);
  parser.flag("--no-vsids", &no_vsids, "disable the VSIDS decision heuristic");
  parser.flag("--no-restarts", &no_restarts, "disable Luby restarts");
  parser.flag("--stats", &req.show_stats, "print the solver statistics line");
  l2l::tools::add_request_flags(parser, req);
  parser.int64_value("--prop-limit", &req.prop_limit, "propagation budget");
  if (const auto st = parser.parse(argc, argv); !st.ok()) return l2l::tools::fail(st);
  l2l::tools::apply_cache_flags(common);
  req.options.use_vsids = !no_vsids;
  req.options.use_restarts = !no_restarts;

  if (!l2l::tools::read_input_text(parser, req.dimacs))
    return l2l::util::kExitUsage;

  using l2l::tools::print_findings;
  if (common.lint &&
      print_findings(std::cout, "c lint: ", l2l::lint::lint_cnf(req.dimacs)))
    return l2l::tools::fail(
        l2l::util::Status::parse_error("lint found errors"));
  if (common.sema &&
      print_findings(std::cout, "c sema: ", l2l::sema::analyze_cnf(req.dimacs)))
    return l2l::tools::fail(
        l2l::util::Status::parse_error("sema found errors"));

  const auto res = l2l::api::solve_sat(req);
  std::cout << res.output;
  if (!res.status.ok()) return l2l::tools::fail(res.status);
  return res.exit_code;
} catch (const std::exception& e) {
  std::cerr << "error: " << l2l::util::Status::internal(e.what()).to_string()
            << "\n";
  return l2l::util::kExitInternal;
} catch (...) {
  std::cerr << "error: internal-error: unknown\n";
  return l2l::util::kExitInternal;
}
