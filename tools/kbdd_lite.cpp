// kbdd_lite: a BDD-based Boolean calculator with a scripting language, in
// the spirit of CMU's kbdd [7] that the MOOC deployed as a cloud portal.
// The calculator itself lives behind api::run_bdd_script (src/api/bdd.cpp),
// so identical scripts replay from the result cache byte-for-byte; this
// main owns only the flags, the lint pre-pass, and the I/O.
//
// Script language (one command per line; '#' comments):
//   var a b c ...          declare variables (order = declaration order)
//   f = <expr>             define a function; expr uses ! & | ^ ( ) 0 1
//   print <f>              truth table (small var counts only)
//   satcount <f>           number of satisfying assignments
//   onesat <f>             one satisfying assignment or UNSAT
//   equal <f> <g>          EQUAL / NOT EQUAL (canonical O(1) compare)
//   size <f>               BDD node count
//   support <f>            variables the function depends on
//   cofactor <f> <var> <0|1>   assign the restriction to `it`
//   exists <f> <var> / forall <f> <var>  quantify, result in `it`
//   dot <f>                Graphviz DOT dump
//
// Usage: kbdd_lite [--lint] [--node-limit N] [--time-limit-ms N]
// [shared pack: --metrics/--trace/--no-cache/--cache-dir]
// [script-file] (default input: stdin). --lint runs the L2L-Kxxx rule
// pack over the whole script before any BDD is built; lint errors exit 3
// without executing a command.
//
// Exit codes: 0 ok, 2 usage/IO, 3 malformed script, 4 resource budget
// exceeded (node/time limit), 5 internal error.

#include <iostream>
#include <string>

#include "api/bdd.hpp"
#include "common_cli.hpp"
#include "lint/lint.hpp"
#include "obs/trace.hpp"
#include "util/arg_parser.hpp"
#include "util/status.hpp"

int main(int argc, char** argv) try {
  l2l::obs::ExportOnExit obs_export;
  l2l::api::BddScriptRequest req;
  l2l::tools::CommonFlags common;

  l2l::util::ArgParser parser;
  l2l::tools::add_common_flags(parser, common, obs_export);
  l2l::tools::add_cache_flags(parser, common);
  parser.int64_value("--node-limit", &req.node_limit, "BDD node budget");
  l2l::tools::add_request_flags(parser, req);
  if (const auto st = parser.parse(argc, argv); !st.ok()) {
    std::cerr << "error: " << st.message << "\n";
    return l2l::util::kExitUsage;
  }
  l2l::tools::apply_cache_flags(common);

  if (!l2l::tools::read_input_text(parser, req.script))
    return l2l::util::kExitUsage;

  if (common.lint &&
      l2l::tools::print_findings(std::cout, "lint: ",
                                 l2l::lint::lint_kbdd_script(req.script)))
    return l2l::tools::fail(
        l2l::util::Status::parse_error("lint found errors"));

  const auto res = l2l::api::run_bdd_script(req);
  std::cout << res.output;
  return res.exit_code;
} catch (const std::exception& e) {
  std::cerr << "error: " << l2l::util::Status::internal(e.what()).to_string()
            << "\n";
  return l2l::util::kExitInternal;
} catch (...) {
  std::cerr << "error: internal-error: unknown\n";
  return l2l::util::kExitInternal;
}
