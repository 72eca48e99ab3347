#pragma once
// The maze-router auto-grader (Figures 4 and 6): consumes an ASCII
// solution, checks every net for legality, and produces a score with
// partial credit per net -- "exactly like building a large regression
// suite for a commercial EDA tool" (paper, §2.2).

#include <string>
#include <vector>

#include "route/solution.hpp"
#include "util/budget.hpp"
#include "util/status.hpp"

namespace l2l::grader {

struct NetGrade {
  int net_id = -1;
  bool legal = false;
  std::string reason;      ///< empty when legal
  int wirelength = 0;      ///< cells used
  int vias = 0;
};

struct RouteGrade {
  std::vector<NetGrade> nets;
  int legal_nets = 0;
  int total_nets = 0;
  int total_wirelength = 0;
  int total_vias = 0;
  /// Partial credit: 100 * legal / total.
  double score = 0.0;
  /// Human-readable report (the "webpage" of the portal architecture).
  std::string report;
  /// Line/column-anchored parse findings for the student. A submission
  /// can carry diagnostics AND partial credit: independently well-formed
  /// nets are salvaged and graded even when other blocks are garbage.
  std::vector<util::Diagnostic> diagnostics;
  /// Pre-grade lint findings (L2L-Sxxx rule pack, run with the problem so
  /// the geometric rules fire). Lint never changes the score.
  std::vector<util::Diagnostic> lint;
  /// Pre-grade semantic findings (l2l::sema, format-sniffed on the raw
  /// upload): fires when a student submits a netlist/CNF/PLA artifact
  /// with semantic defects to the wrong portal. Never changes the score;
  /// a routing submission has none.
  std::vector<util::Diagnostic> sema;
  /// Non-ok when grading itself was cut short (budget) or failed
  /// (internal error); parse problems are diagnostics, not status.
  util::Status status;
};

/// Grade a parsed solution against the problem. Never throws. The
/// optional resource guard consumes one step per net graded; exhaustion
/// stops grading with the nets checked so far scored and status set.
RouteGrade grade_routing(const gen::RoutingProblem& problem,
                         const route::RouteSolution& solution,
                         const util::Budget* budget = nullptr);

/// Text-in/text-out variant: parse (leniently), grade, report. Never
/// throws. Malformed blocks become diagnostics; salvageable nets still
/// earn partial credit. A fully unparsable submission scores 0 with a
/// "parse error" report.
RouteGrade grade_routing_text(const gen::RoutingProblem& problem,
                              const std::string& solution_text,
                              const util::Budget* budget = nullptr);

}  // namespace l2l::grader
