// espresso_lite: two-level minimizer front-end (the Espresso [9,10] portal
// workalike). Reads a PLA from a file argument or stdin, minimizes every
// output (heuristic by default, exact Quine-McCluskey with --exact), and
// writes the minimized PLA to stdout. The minimization goes through
// api::minimize_pla, so identical PLAs replay from the result cache.
//
// Flags: --exact, --stats, --single-pass (ablation), --lint (run the
// L2L-Pxxx rule pack first; findings print as '# lint:' lines on stderr
// and lint errors exit 3 before minimization), plus the shared pack from
// tools/common_cli.hpp (--metrics/--trace/--no-cache/--cache-dir).
//
// Exit codes: 0 ok, 2 usage/IO, 3 malformed PLA, 5 internal error.

#include <iostream>
#include <string>

#include "api/espresso.hpp"
#include "common_cli.hpp"
#include "lint/lint.hpp"
#include "obs/trace.hpp"
#include "sema/sema.hpp"
#include "util/arg_parser.hpp"
#include "util/status.hpp"

int main(int argc, char** argv) try {
  l2l::obs::ExportOnExit obs_export;
  l2l::api::EspressoRequest req;
  l2l::tools::CommonFlags common;

  l2l::util::ArgParser parser;
  l2l::tools::add_common_flags(parser, common, obs_export);
  l2l::tools::add_cache_flags(parser, common);
  parser.flag("--exact", &req.exact, "exact Quine-McCluskey minimization");
  parser.flag("--stats", &req.show_stats, "per-output cube/literal stats");
  parser.flag("--single-pass", &req.single_pass,
              "ablation: one expand/reduce pass");
  l2l::tools::add_request_flags(parser, req);
  if (const auto st = parser.parse(argc, argv); !st.ok()) {
    std::cerr << "error: " << st.message << "\n";
    return l2l::util::kExitUsage;
  }
  l2l::tools::apply_cache_flags(common);

  if (!l2l::tools::read_input_text(parser, req.pla))
    return l2l::util::kExitUsage;

  using l2l::tools::print_findings;
  if (common.lint &&
      print_findings(std::cerr, "# lint: ", l2l::lint::lint_pla(req.pla)))
    return l2l::tools::fail(
        l2l::util::Status::parse_error("lint found errors"));
  if (common.sema &&
      print_findings(std::cerr, "# sema: ", l2l::sema::analyze_pla(req.pla)))
    return l2l::tools::fail(
        l2l::util::Status::parse_error("sema found errors"));

  const auto res = l2l::api::minimize_pla(req);
  if (!res.status.ok()) {
    std::cerr << "error: " << res.status.to_string() << "\n";
    return res.exit_code;
  }
  std::cerr << res.stats_output;
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
