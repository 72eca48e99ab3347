#pragma once
// The quadratic-placement auto-grader: consumes "cell <id> <x> <y>" text,
// checks legality on the site grid, and scores by HPWL against a
// reference-quality threshold (the project's grading scheme: legality
// gates the score, wirelength earns the quality points).

#include <string>
#include <vector>

#include "place/legalize.hpp"
#include "place/placement_text.hpp"
#include "util/status.hpp"

namespace l2l::grader {

struct PlaceGrade {
  bool legal = false;
  std::string reason;     ///< empty when legal
  double hpwl = 0.0;
  /// Quality ratio vs. the reference placement's HPWL (< 1 beats it).
  double quality_ratio = 0.0;
  /// 0 when illegal; otherwise 50 legality points + up to 50 quality
  /// points scaled by reference_hpwl / hpwl (capped at 1).
  double score = 0.0;
  std::string report;
  /// Every malformed line found in one pass (a student fixing a bulk
  /// export learns all their mistakes from a single upload, not one per
  /// resubmission).
  std::vector<util::Diagnostic> diagnostics;
  /// Pre-grade lint findings (L2L-Lxxx rule pack), prepended to the
  /// report. Lint never changes the score; a clean submission has none.
  std::vector<util::Diagnostic> lint;
  /// Pre-grade semantic findings (l2l::sema, format-sniffed on the raw
  /// upload): fires when a student submits a netlist/CNF/PLA artifact
  /// with semantic defects to the wrong portal. Never changes the score;
  /// a placement submission has none.
  std::vector<util::Diagnostic> sema;
};

/// Placement solution text: one "cell <index> <col> <row>" line per cell.
std::string write_placement_text(const place::GridPlacement& gp);

/// The grader's rendering of the shared parse's defects: every malformed
/// line as a line- and column-anchored "placement: ..." diagnostic, in
/// file order, then the unassigned cells.
std::vector<util::Diagnostic> placement_diagnostics(
    const place::ParsedPlacement& parsed);

/// Strict parse: throws std::invalid_argument carrying the first
/// diagnostic when anything is malformed or missing.
place::GridPlacement parse_placement_text(const std::string& text,
                                          int num_cells);

/// Grade a site assignment.
PlaceGrade grade_placement(const gen::PlacementProblem& problem,
                           const place::Grid& grid,
                           const place::GridPlacement& gp,
                           double reference_hpwl);

/// Text-in/text-out variant; never throws. Parse errors score 0 with
/// every malformed line reported (see placement_diagnostics). The text
/// is parsed once; lint reads the same parse.
PlaceGrade grade_placement_text(const gen::PlacementProblem& problem,
                                const place::Grid& grid,
                                const std::string& text,
                                double reference_hpwl);

}  // namespace l2l::grader
