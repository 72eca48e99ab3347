#pragma once
// l2l::lint -- static design-rule analysis for every artifact the flow
// consumes, run *before* any engine touches the bytes.
//
// The MOOC graded planet-scale uploads unattended; the feedback students
// valued most was "your file is malformed at line N, here is why" -- and
// producing it must cost milliseconds, not an engine budget. Each input
// format (BLIF, PLA, DIMACS CNF, placement text, routing problem and
// solution, the kbdd/axb tool inputs) gets a rule pack: pure functions
// from text to a list of Findings, each carrying a stable rule ID
// ("L2L-B001"-style), a severity, a 1-based line/column anchor, and an
// optional fix-it hint. Rule packs never throw, never allocate
// proportionally to a hostile header, and never execute any engine.
//
// Determinism contract (same as the rest of the repo): a lint Report
// renders byte-identically at any L2L_THREADS value. Files are linted
// concurrently via parallel_for, but each file's findings depend only on
// its bytes, results are kept in input order, and findings within a file
// are sorted by (line, column, rule, message) before rendering.
//
// Rule ID scheme (DESIGN.md "Static analysis & lint"):
//   L2L-Bxxx  BLIF / network        L2L-Pxxx  PLA
//   L2L-Cxxx  DIMACS CNF            L2L-Lxxx  placement text
//   L2L-Rxxx  routing problem       L2L-Sxxx  routing solution
//   L2L-Kxxx  kbdd script           L2L-Axxx  axb linear system

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gen/routing_gen.hpp"
#include "util/status.hpp"

namespace l2l::place { struct ParsedPlacement; }
namespace l2l::route { struct ParsedProblem; struct ParsedSolution; }

namespace l2l::lint {

// ---- findings -----------------------------------------------------------

struct Finding {
  std::string rule;  ///< stable ID, e.g. "L2L-B003"
  util::Severity severity = util::Severity::kError;
  int line = 0;    ///< 1-based; 0 = not attributable to a position
  int column = 0;  ///< 1-based; 0 = unknown
  std::string message;
  std::string hint;  ///< optional fix-it suggestion ("write ... instead")

  /// "line 3, col 1: error: [L2L-B003] undriven net 'q' (hint: ...)".
  std::string to_string() const;

  /// Downgrade to the grader-facing Diagnostic type (rule ID folded into
  /// the message so student reports keep the stable identifier).
  util::Diagnostic to_diagnostic() const;
};

/// Sort by (line, column, rule, message, severity): the canonical render
/// order. Stable across thread counts by construction.
void sort_findings(std::vector<Finding>& findings);

/// "error" / "warning" / "note" -- the render spelling shared by the text
/// and JSON exporters (and by l2l::sema's registry print).
const char* severity_name(util::Severity s);

std::vector<util::Diagnostic> to_diagnostics(
    const std::vector<Finding>& findings);

// ---- rule registry ------------------------------------------------------

/// One registered rule: the stable ID, its default severity, and a
/// one-line summary (rendered by `l2l-lint --rules` and DESIGN.md).
struct RuleInfo {
  const char* id;
  util::Severity severity;
  const char* summary;
};

/// Every rule in every pack, grouped by pack (B, P, C, L, R, S, K, A)
/// with IDs ascending inside each group -- the `--rules` print order.
const std::vector<RuleInfo>& all_rules();

/// Lookup by ID; nullptr when unknown.
const RuleInfo* rule_info(std::string_view id);

// ---- formats ------------------------------------------------------------

enum class Format {
  kAuto,           ///< resolve via filename extension, then content sniff
  kBlif,           ///< .blif  -- combinational BLIF networks
  kPla,            ///< .pla   -- two-level PLA truth tables
  kCnf,            ///< .cnf   -- DIMACS CNF
  kPlacement,      ///< .place/.txt -- "cell <id> <col> <row>" text
  kRouteProblem,   ///< .problem -- routing grid/obstacles/nets
  kRouteSolution,  ///< .sol   -- routed net cell lists
  kKbddScript,     ///< .kbdd  -- kbdd_lite calculator scripts
  kAxb,            ///< .axb   -- dense linear-system text
  kUnknown,        ///< unrecognized: lint emits a file-level note
};

const char* format_name(Format f);

/// Parse a --format flag value ("blif", "pla", "cnf", "place",
/// "route-problem", "route-solution", "kbdd", "axb").
std::optional<Format> parse_format_name(std::string_view name);

/// Resolve by filename extension; kAuto when the extension says nothing.
Format format_from_path(std::string_view path);

/// Resolve by content (first meaningful line); kUnknown when nothing
/// matches. Never throws, reads O(1) lines.
Format sniff_format(const std::string& text);

// ---- rule packs ---------------------------------------------------------
// Each pack is a pure function: text in, sorted findings out. Packs that
// check against assignment parameters take them explicitly; unknown
// parameters (negative / nullptr) skip the dependent rules so a
// standalone file can still be linted.

std::vector<Finding> lint_blif(const std::string& text);
std::vector<Finding> lint_pla(const std::string& text);
std::vector<Finding> lint_cnf(const std::string& text);

/// Assignment parameters for the placement pack. Unknown values (-1)
/// skip the range/completeness rules.
struct PlacementSpec {
  int num_cells = -1;  ///< expected cell count
  int cols = -1;       ///< sites per row (x range)
  int rows = -1;       ///< row count (y range)
};

std::vector<Finding> lint_placement(const std::string& text,
                                    const PlacementSpec& spec = {});

/// The same pack over a parse the caller already holds (a grader's);
/// it must come from place::parse_placement_lenient(text, spec.num_cells).
std::vector<Finding> lint_placement(const place::ParsedPlacement& parsed,
                                    const PlacementSpec& spec = {});

std::vector<Finding> lint_route_problem(const std::string& text);

/// The same pack over route::parse_problem_lenient's result, for callers
/// (l2l-lint --problem) that keep the parsed problem.
std::vector<Finding> lint_route_problem(const route::ParsedProblem& parsed);

/// Solution lint; with a problem the geometric rules (bounds, obstacles,
/// net-ID membership) run too.
std::vector<Finding> lint_route_solution(
    const std::string& text, const gen::RoutingProblem* problem = nullptr);

/// The same pack over route::parse_solution_lenient's result, for callers
/// (the route grader) that already parsed the text.
std::vector<Finding> lint_route_solution(
    const route::ParsedSolution& parsed,
    const gen::RoutingProblem* problem = nullptr);

std::vector<Finding> lint_kbdd_script(const std::string& text);
std::vector<Finding> lint_axb(const std::string& text);

// ---- reports ------------------------------------------------------------

struct FileReport {
  std::string file;  ///< display name ("<stdin>" for piped input)
  Format format = Format::kUnknown;
  std::vector<Finding> findings;

  int errors() const;
  int warnings() const;
  int notes() const;
  bool clean() const { return errors() == 0; }
};

struct Report {
  std::vector<FileReport> files;  ///< in input order

  int errors() const;
  int warnings() const;
  int notes() const;
  /// Gate: no errors, and no warnings either when `werror` is set.
  bool pass(bool werror = false) const;

  /// clang-style text: one line per finding plus a per-run summary line.
  std::string to_text() const;
  /// Machine-readable export (stable key order, findings sorted).
  std::string to_json() const;
};

/// Options threaded through lint_text / lint_files.
struct LintOptions {
  Format format = Format::kAuto;  ///< force a format (kAuto = resolve)
  PlacementSpec placement;
  const gen::RoutingProblem* route_problem = nullptr;
};

/// Lint one in-memory artifact. Resolves the format (flag > extension >
/// content sniff), runs the pack, sorts the findings, and bumps the
/// per-rule obs counters ("lint.rule.<ID>"). Never throws.
FileReport lint_text(const std::string& name, const std::string& text,
                     const LintOptions& opt = {});

/// Lint many artifacts across the worker pool (one task per file).
/// Result order matches input order; byte-identical at any L2L_THREADS.
Report lint_files(const std::vector<std::pair<std::string, std::string>>&
                      named_texts,
                  const LintOptions& opt = {});

}  // namespace l2l::lint
