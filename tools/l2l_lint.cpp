// l2l-lint: static design-rule analysis for every artifact the portal
// tools and graders consume -- BLIF, PLA, DIMACS CNF, placement text,
// routing problems and solutions, kbdd scripts, axb systems. Rejects
// hostile or broken inputs in milliseconds, before any engine budget is
// spent; every finding carries a stable rule ID (see DESIGN.md "Static
// analysis & lint" or --rules).
//
// Usage: l2l-lint [options] [files... | -]   (no files / "-" = stdin)
//   --format NAME   force a format: blif pla cnf place route-problem
//                   route-solution kbdd axb (default: extension, then
//                   content sniff)
//   --json          machine-readable report instead of text
//   --Werror        warnings fail the gate too
//   --sema          also run the semantic analyzer (l2l::sema) on BLIF,
//                   CNF, and PLA inputs: cycles, undriven/multi-driven
//                   nets, dead logic, stuck-at constants, duplicate
//                   gates, redundant cubes, solver-free contradictions
//   --rules         print the rule registry and exit (--sema appends
//                   the semantic rules)
//   --cells N       placement: expected cell count
//   --grid CxR      placement: sites-per-row x rows region bound
//   --problem FILE  routing solutions: the problem to check against
//   --metrics FILE / --trace FILE   observability export
//
// Exit codes (PR 2 convention): 0 clean, 2 usage/IO error, 3 lint gate
// failed (errors, or warnings under --Werror), 5 internal error.

#include <fstream>
#include <iostream>
#include <sstream>

#include "lint/lint.hpp"
#include "obs/trace.hpp"
#include "sema/sema.hpp"
#include "route/solution.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"

namespace {

int usage(const std::string& msg) {
  std::cerr << "error: " << msg << "\n"
            << "usage: l2l-lint [--format NAME] [--json] [--Werror] "
               "[--sema] [--rules]\n"
               "                [--cells N] [--grid CxR] [--problem FILE]\n"
               "                [--metrics FILE] [--trace FILE] "
               "[files... | -]\n";
  return l2l::util::kExitUsage;
}

std::string read_stream(std::istream& in) {
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) try {
  l2l::obs::ExportOnExit obs_export;
  l2l::lint::LintOptions opt;
  bool json = false, werror = false, sema = false, rules = false;
  std::string problem_path;
  std::vector<std::string> paths;
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    auto value = [&]() -> const char* {
      return k + 1 < argc ? argv[++k] : nullptr;
    };
    if (arg == "--json") {
      json = true;
    } else if (arg == "--Werror") {
      werror = true;
    } else if (arg == "--sema") {
      sema = true;
    } else if (arg == "--rules") {
      rules = true;  // handled after the loop so `--rules --sema` works
    } else if (arg == "--format") {
      const char* v = value();
      if (!v) return usage("--format needs a value");
      const auto f = l2l::lint::parse_format_name(v);
      if (!f) return usage(std::string("unknown format '") + v + "'");
      opt.format = *f;
    } else if (arg == "--cells") {
      const char* v = value();
      const auto n = v ? l2l::util::parse_int(v) : std::nullopt;
      if (!n || *n < 0) return usage("--cells needs a non-negative integer");
      opt.placement.num_cells = *n;
    } else if (arg == "--grid") {
      const char* v = value();
      const auto tok = v ? l2l::util::split(v, "x") : std::vector<std::string>{};
      const auto c = tok.size() == 2 ? l2l::util::parse_int(tok[0])
                                     : std::nullopt;
      const auto r = tok.size() == 2 ? l2l::util::parse_int(tok[1])
                                     : std::nullopt;
      if (!c || !r || *c < 1 || *r < 1)
        return usage("--grid wants '<cols>x<rows>', e.g. 20x20");
      opt.placement.cols = *c;
      opt.placement.rows = *r;
    } else if (arg == "--problem") {
      const char* v = value();
      if (!v) return usage("--problem needs a file");
      problem_path = v;
    } else if (arg == "--metrics" || arg == "--trace") {
      const char* v = value();
      if (!v) return usage(arg + " needs a value");
      (arg == "--metrics" ? obs_export.metrics_path
                          : obs_export.trace_path) = v;
    } else if (arg == "-") {
      paths.push_back("-");
    } else if (l2l::util::starts_with(arg, "--")) {
      return usage("unknown flag '" + arg + "'");
    } else {
      paths.push_back(arg);
    }
  }

  if (rules) {
    auto print = [](const std::vector<l2l::lint::RuleInfo>& rs) {
      for (const auto& r : rs)
        std::cout << r.id << "  " << l2l::lint::severity_name(r.severity)
                  << "  " << r.summary << "\n";
    };
    print(l2l::lint::all_rules());
    if (sema) print(l2l::sema::all_rules());
    return l2l::util::kExitOk;
  }

  // The routing problem gates the solution pack's geometric rules; a
  // malformed problem file is itself a lintable artifact, so its one
  // parse is reported through the same machinery instead of dying.
  l2l::route::ParsedProblem problem;
  if (!problem_path.empty()) {
    std::ifstream in(problem_path);
    if (!in) return usage("cannot open " + problem_path);
    problem = l2l::route::parse_problem_lenient(read_stream(in));
    if (!problem.clean()) {
      l2l::lint::Report rep;
      rep.files.push_back({problem_path, l2l::lint::Format::kRouteProblem,
                           l2l::lint::lint_route_problem(problem)});
      std::cout << (json ? rep.to_json() : rep.to_text());
      return l2l::util::kExitParse;
    }
    opt.route_problem = &problem.problem;
  }

  std::vector<std::pair<std::string, std::string>> inputs;
  if (paths.empty()) paths.push_back("-");
  for (const auto& p : paths) {
    if (p == "-") {
      inputs.emplace_back("<stdin>", read_stream(std::cin));
      continue;
    }
    std::ifstream in(p);
    if (!in) return usage("cannot open " + p);
    inputs.emplace_back(p, read_stream(in));
  }

  auto report = l2l::lint::lint_files(inputs, opt);
  if (sema) {
    // Semantic findings ride in the same report: merge per file and
    // re-sort into the canonical (line, column, rule) render order.
    const auto sem = l2l::sema::analyze_files(inputs, opt.format);
    for (std::size_t k = 0; k < report.files.size(); ++k) {
      auto& fr = report.files[k];
      const auto& sf = sem.files[k].findings;
      fr.findings.insert(fr.findings.end(), sf.begin(), sf.end());
      l2l::lint::sort_findings(fr.findings);
    }
  }
  std::cout << (json ? report.to_json() : report.to_text());
  return report.pass(werror) ? l2l::util::kExitOk : l2l::util::kExitParse;
} catch (const std::exception& e) {
  std::cerr << "error: " << l2l::util::Status::internal(e.what()).to_string()
            << "\n";
  return l2l::util::kExitInternal;
} catch (...) {
  std::cerr << "error: internal-error: unknown\n";
  return l2l::util::kExitInternal;
}
