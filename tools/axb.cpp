// axb: the MOOC's "simple custom solver for linear systems" (Fig. 4),
// deployed so students could experiment with quadratic-placement
// formulations. Text format:
//
//   n
//   a11 a12 ... a1n
//   ...
//   an1 ... ann
//   b1 ... bn
//
// Solves A x = b with Gaussian elimination (partial pivoting); with
// --cg uses conjugate gradient (requires symmetric positive definite A).
// The solve goes through api::solve_axb, so identical systems replay
// from the result cache -- including failure outcomes like "singular
// matrix", which carry the same stderr text and exit code either way.
// --lint runs the L2L-Axxx rule pack first (shape + symmetry pre-check);
// findings print as '# lint:' lines on stderr, lint errors exit 3.
// Shared pack: --metrics/--trace/--no-cache/--cache-dir.
//
// Exit codes follow the shared convention (util/status.hpp): 0 ok,
// 1 solve failure, 2 usage/IO, 3 malformed input, 4 budget exceeded,
// 5 internal error.

#include <iostream>
#include <string>

#include "api/axb.hpp"
#include "common_cli.hpp"
#include "lint/lint.hpp"
#include "obs/trace.hpp"
#include "util/arg_parser.hpp"
#include "util/status.hpp"

int main(int argc, char** argv) try {
  l2l::obs::ExportOnExit obs_export;
  l2l::api::AxbRequest req;
  l2l::tools::CommonFlags common;

  l2l::util::ArgParser parser;
  l2l::tools::add_common_flags(parser, common, obs_export);
  l2l::tools::add_cache_flags(parser, common);
  parser.flag("--cg", &req.use_cg, "conjugate gradient (needs symmetric A)");
  l2l::tools::add_request_flags(parser, req);
  if (const auto st = parser.parse(argc, argv); !st.ok()) return l2l::tools::fail(st);
  l2l::tools::apply_cache_flags(common);

  if (!l2l::tools::read_input_text(parser, req.input))
    return l2l::util::kExitUsage;

  if (common.lint && l2l::tools::print_findings(
                         std::cerr, "# lint: ", l2l::lint::lint_axb(req.input)))
    return l2l::tools::fail(
        l2l::util::Status::parse_error("lint found errors"));

  const auto res = l2l::api::solve_axb(req);
  std::cout << res.output;
  std::cerr << res.error_output;
  return res.exit_code;
} catch (const std::exception& e) {
  std::cerr << "error: " << l2l::util::Status::internal(e.what()).to_string()
            << "\n";
  return l2l::util::kExitInternal;
} catch (...) {
  std::cerr << "error: internal-error: unknown\n";
  return l2l::util::kExitInternal;
}
