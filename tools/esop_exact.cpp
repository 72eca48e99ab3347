// esop_exact: SAT-based exact ESOP synthesis front-end (the eighth
// course tool portal). Reads a PLA or a single raw truth-table row
// ("0110", LSB first) from a file argument or stdin, finds a
// minimum-term exclusive-or sum of products for every output with the
// incremental SAT engine in src/esop/, and writes the `.type esop` PLA
// to stdout. Synthesis goes through api::synthesize_esop, so identical
// inputs replay from the result cache byte-identically.
//
// Flags: --max-terms N (cap per output), --conflict-limit N,
// --prop-limit N, --time-limit-ms N, --stats, --lint (run the L2L-Pxxx
// PLA rule pack first when the input is a PLA), plus the shared pack
// from tools/common_cli.hpp (--metrics/--trace/--no-cache/
// --cache-dir).
//
// Exit codes: 0 ok, 2 usage/IO, 3 malformed or oversized input,
// 4 budget/term-cap exhausted (partial bounds in --stats output),
// 5 internal error -- a decoded SAT model that fails verification is
// NEVER printed as an answer.

#include <cstdint>
#include <iostream>
#include <string>

#include "api/esop.hpp"
#include "common_cli.hpp"
#include "lint/lint.hpp"
#include "obs/trace.hpp"
#include "sema/sema.hpp"
#include "util/arg_parser.hpp"
#include "util/status.hpp"

int main(int argc, char** argv) try {
  l2l::obs::ExportOnExit obs_export;
  l2l::api::EsopRequest req;
  l2l::tools::CommonFlags common;

  l2l::util::ArgParser parser;
  l2l::tools::add_common_flags(parser, common, obs_export);
  l2l::tools::add_cache_flags(parser, common);
  std::int64_t max_terms = -1;
  parser.int64_value("--max-terms", &max_terms,
                     "cap on product terms per output");
  parser.int64_value("--conflict-limit", &req.conflict_limit,
                     "SAT conflict cap per query");
  parser.int64_value("--prop-limit", &req.prop_limit,
                     "total SAT propagation budget");
  l2l::tools::add_request_flags(parser, req);
  parser.flag("--stats", &req.show_stats,
              "per-output term counts, bounds, and query stats");
  if (const auto st = parser.parse(argc, argv); !st.ok()) {
    std::cerr << "error: " << st.message << "\n";
    return l2l::util::kExitUsage;
  }
  l2l::tools::apply_cache_flags(common);
  req.max_terms = static_cast<int>(max_terms);

  if (!l2l::tools::read_input_text(parser, req.input))
    return l2l::util::kExitUsage;

  // A raw truth-table row has no PLA directives to check.
  using l2l::tools::print_findings;
  const bool is_pla = req.input.find('.') != std::string::npos;
  if (common.lint && is_pla &&
      print_findings(std::cerr, "# lint: ", l2l::lint::lint_pla(req.input)))
    return l2l::tools::fail(
        l2l::util::Status::parse_error("lint found errors"));
  if (common.sema && is_pla &&
      print_findings(std::cerr, "# sema: ", l2l::sema::analyze_pla(req.input)))
    return l2l::tools::fail(
        l2l::util::Status::parse_error("sema found errors"));

  const auto res = l2l::api::synthesize_esop(req);
  std::cerr << res.stats_output;
  if (!res.status.ok()) {
    std::cerr << "error: " << res.status.to_string() << "\n";
    return res.exit_code;
  }
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
