#pragma once
// The shared flag pack for the tools/* portal mains. Every portal
// accepts the same cross-cutting flags; before util::ArgParser existed
// each main hand-rolled the same parsing loop. Registering the pack:
//
//   --lint            run the input rule pack before the engine
//   --sema            also run the semantic analyzer (l2l::sema) on the
//                     input; error-severity findings gate like lint's
//   --metrics FILE    deterministic metrics export on every exit path
//   --trace FILE      Chrome trace export on every exit path
//
// Portals whose engine reads the result cache also register the cache
// pair (add_cache_flags), applied after parse() by apply_cache_flags:
//
//   --no-cache        turn result-cache lookups off for this run
//   --cache-dir DIR   persistent cache tier (same as L2L_CACHE_DIR)
//
// Engine portals whose request inherits api::RequestBase additionally
// register the shared request flags (add_request_flags):
//
//   --time-limit-ms N wall-clock budget; >= 0 disables the result cache
//
// Tool-specific flags (deterministic budgets, heuristics) stay in each
// main -- their units differ per engine.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "api/base.hpp"
#include "cache/cache.hpp"
#include "obs/trace.hpp"
#include "util/arg_parser.hpp"
#include "util/status.hpp"

namespace l2l::tools {

struct CommonFlags {
  bool lint = false;
  bool sema = false;  ///< semantic analysis (cycles, stuck-ats, ...)
  bool no_cache = false;
  std::string cache_dir;
};

inline void add_common_flags(util::ArgParser& parser, CommonFlags& flags,
                             obs::ExportOnExit& obs_export) {
  parser.flag("--lint", &flags.lint, "run the input rule pack first");
  parser.flag("--sema", &flags.sema,
              "run the semantic analyzer on the input first");
  parser.value("--metrics", &obs_export.metrics_path,
               "write deterministic metrics to FILE");
  parser.value("--trace", &obs_export.trace_path,
               "write a Chrome trace to FILE");
}

/// The result-cache pair, for portals whose engine reads the cache.
inline void add_cache_flags(util::ArgParser& parser, CommonFlags& flags) {
  parser.flag("--no-cache", &flags.no_cache,
              "turn result-cache lookups off for this run");
  parser.value("--cache-dir", &flags.cache_dir,
               "persistent result-cache directory (same as L2L_CACHE_DIR)");
}

/// The shared api::RequestBase flags, registered once here instead of
/// copy-pasted into every engine portal. Pass the request itself (it
/// inherits RequestBase); the parser writes straight into the base
/// fields, so there is nothing to copy after parse().
inline void add_request_flags(util::ArgParser& parser, api::RequestBase& req) {
  parser.int64_value("--time-limit-ms", &req.time_limit_ms,
                     "wall-clock budget (disables the result cache)");
}

/// Apply the cache flags after parse().
inline void apply_cache_flags(const CommonFlags& flags) {
  if (flags.no_cache) cache::set_enabled(false);
  if (!flags.cache_dir.empty())
    cache::Cache::global().set_disk_dir(flags.cache_dir);
}

/// Input convention shared by every portal: the first positional names a
/// file, no positional means stdin. False = unreadable file, after
/// printing the canonical "cannot open X" line to stderr (caller exits
/// kExitUsage).
inline bool read_input_text(const util::ArgParser& parser, std::string& text) {
  std::ostringstream ss;
  if (!parser.positionals().empty()) {
    const auto& path = parser.positionals().front();
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cannot open " << path << "\n";
      return false;
    }
    ss << in.rdbuf();
  } else {
    ss << std::cin.rdbuf();
  }
  text = ss.str();
  return true;
}

/// Print "error: <status>" on stderr; return the status's exit code.
inline int fail(const util::Status& status) {
  std::cerr << "error: " << status.to_string() << "\n";
  return util::exit_code_for(status);
}

/// The --lint / --sema gate: print each finding on `out` after `prefix`
/// ("# lint: ", "c sema: ", ...) and return whether any is an error.
template <typename Findings>
bool print_findings(std::ostream& out, std::string_view prefix,
                    const Findings& findings) {
  bool fatal = false;
  for (const auto& f : findings) {
    out << prefix << f.to_string() << "\n";
    fatal = fatal || f.severity == util::Severity::kError;
  }
  return fatal;
}

}  // namespace l2l::tools
