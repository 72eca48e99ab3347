#pragma once
// ASCII routing-solution format, mirroring the MOOC project's contract:
// the auto-grader consumed plain text files describing each net's cells.
//
//   <num_nets>
//   net <id>
//   (x y layer)
//   ...
//   !
//
// plus the routing-problem writer and its one located reader, so tools
// can round-trip benchmarks.

#include <string>
#include <string_view>
#include <vector>

#include "route/router.hpp"
#include "util/status.hpp"

namespace l2l::route {

/// Serialize a solution (routed nets only keep their cells; failed nets
/// are emitted with no cells so graders can assign partial credit).
std::string write_solution(const RouteSolution& sol);

/// Result of the tolerant parse below: every independently well-formed
/// `net ... !` block is salvaged into `solution`; each malformed region
/// produces one line/column-anchored diagnostic and poisons only its own
/// block, so a typo on net 3 never costs a student credit for net 7.
struct ParsedSolution {
  RouteSolution solution;                     ///< salvaged nets only
  std::vector<util::Diagnostic> diagnostics;  ///< empty = clean parse
  int declared_nets = -1;                     ///< header count, -1 if absent

  bool clean() const { return diagnostics.empty(); }
};

/// Tolerant parse of a solution file. Never throws.
ParsedSolution parse_solution_lenient(const std::string& text);

/// Strict parse. Throws std::invalid_argument on any malformed text
/// (thin wrapper over parse_solution_lenient for round-trip callers that
/// want hard failures, e.g. tests and tools reading their own output).
RouteSolution parse_solution(const std::string& text);

/// Serialize a routing problem (grid, obstacles, nets) as ASCII text.
std::string write_problem(const gen::RoutingProblem& p);

/// Why a text is not a routable problem, worded for the learner. `line`
/// is 1-based; 0 means the file as a whole. kRange is a grid header past
/// the allocation caps; kStructure is anything else that does not parse.
/// kSharedPin is a pin on a point an earlier net already has a pin on:
/// no route can give that point to both nets.
struct ProblemDefect {
  enum class Kind {
    kStructure, kRange, kOffGridPin, kPinOnObstacle, kDuplicateId, kSharedPin
  };
  Kind kind;
  int line = 0;
  std::string message;
  std::string hint;  ///< a fix-it suggestion, or empty
};

/// The one located routing-problem parse, shared by parse_problem and the
/// L2L-Rxxx lint pack. Lenient: it never throws and records the first
/// util::kMaxDefects defects in file order. It salvages what it can: a
/// bad obstacle or pin line is skipped, a bad header ends the reading,
/// and after a grid outside the caps the rest is read without a grid.
struct ParsedProblem {
  /// The grid (none after a range defect), its in-grid obstacles, and
  /// every net read with every pin that scanned, off-grid ones included.
  gen::RoutingProblem problem;
  std::vector<int> net_lines;               ///< header line of each net
  std::vector<std::vector<int>> pin_lines;  ///< line of each pin, per net
  std::vector<ProblemDefect> defects;

  bool has_grid() const { return problem.width > 0; }
  bool clean() const { return defects.empty(); }
};

ParsedProblem parse_problem_lenient(std::string_view text);

/// Parse a routing problem: the lenient parse when it found no defect.
/// Throws std::invalid_argument naming the first defect otherwise.
gen::RoutingProblem parse_problem(const std::string& text);

/// Render layer maps as ASCII art (debug/teaching aid): '.' free,
/// '#' obstacle, 'a'..'z' net cells (mod 26), '*' pins.
std::string render_ascii(const gen::RoutingProblem& p, const RouteSolution& sol,
                         int layer);

}  // namespace l2l::route
