#include "grader/place_grader.hpp"

#include <algorithm>
#include <stdexcept>

#include "lint/lint.hpp"
#include "obs/trace.hpp"
#include "sema/sema.hpp"
#include "place/wirelength.hpp"
#include "util/strings.hpp"

namespace l2l::grader {

std::string write_placement_text(const place::GridPlacement& gp) {
  std::string out;
  for (std::size_t c = 0; c < gp.col.size(); ++c)
    out += util::format("cell %d %d %d\n", static_cast<int>(c), gp.col[c],
                        gp.row[c]);
  return out;
}

std::vector<util::Diagnostic> placement_diagnostics(
    const place::ParsedPlacement& parsed) {
  using Kind = place::PlacementDefect::Kind;
  constexpr std::size_t kExcerpt = 60;
  std::vector<util::Diagnostic> out;
  out.reserve(parsed.defects.size());
  for (const auto& d : parsed.defects) {
    std::string msg;
    switch (d.kind) {
      case Kind::kBadLine:
        msg = "placement: bad line '" +
              std::string(d.text.substr(0, kExcerpt)) + "'";
        break;
      case Kind::kBadNumber:
        msg = "placement: bad number in '" +
              std::string(d.text.substr(0, kExcerpt)) + "'";
        break;
      case Kind::kCellOutOfRange:
        msg = util::format("placement: cell index %d out of range [0, %d)",
                           d.cell,
                           static_cast<int>(parsed.placement.col.size()));
        break;
      case Kind::kDuplicateCell:
        msg = util::format("placement: cell %d assigned twice", d.cell);
        break;
      case Kind::kMissingCells:
        msg = util::format("placement: cell %d missing (%d cells unassigned)",
                           d.cell, d.count);
        break;
    }
    out.push_back(util::make_error(d.line, d.column, std::move(msg)));
  }
  return out;
}

place::GridPlacement parse_placement_text(const std::string& text,
                                          int num_cells) {
  auto parsed = place::parse_placement_lenient(text, num_cells);
  if (!parsed.clean())
    throw std::invalid_argument(
        placement_diagnostics(parsed).front().to_string());
  return std::move(parsed.placement);
}

PlaceGrade grade_placement(const gen::PlacementProblem& problem,
                           const place::Grid& grid,
                           const place::GridPlacement& gp,
                           double reference_hpwl) {
  obs::ScopedSpan span("grader.place.grade", "grader");
  PlaceGrade g;
  if (static_cast<int>(gp.col.size()) != problem.num_cells) {
    g.reason = "wrong cell count";
  } else if (!place::is_legal(gp, grid)) {
    g.reason = "illegal placement (site collision or out of range)";
  }
  if (!g.reason.empty()) {
    g.report = util::format("PLACEMENT GRADE: FAIL (%s), score 0\n",
                            g.reason.c_str());
    return g;
  }
  g.legal = true;
  g.hpwl = place::hpwl(problem, gp.to_continuous(grid));
  g.quality_ratio = reference_hpwl > 0 ? g.hpwl / reference_hpwl : 1.0;
  const double quality_points =
      50.0 * std::min(1.0, reference_hpwl / std::max(1e-9, g.hpwl));
  g.score = 50.0 + quality_points;
  g.report = util::format(
      "PLACEMENT GRADE: legal, HPWL %.1f (reference %.1f, ratio %.3f), "
      "score %.1f\n",
      g.hpwl, reference_hpwl, g.quality_ratio, g.score);
  return g;
}

PlaceGrade grade_placement_text(const gen::PlacementProblem& problem,
                                const place::Grid& grid,
                                const std::string& text,
                                double reference_hpwl) {
  // Pre-grade lint: the L2L-Lxxx pack with the full assignment context.
  // Findings ride along in the report (rule IDs included) but never touch
  // the score -- grading below stays byte-for-byte what it always was for
  // clean submissions, which have zero findings.
  const auto parsed = place::parse_placement_lenient(text, problem.num_cells);
  const auto lint_findings = lint::lint_placement(
      parsed, {problem.num_cells, grid.sites_per_row, grid.rows});

  PlaceGrade g;
  if (!parsed.clean()) {
    // Placement has no per-net partial credit (a single missing cell makes
    // the whole assignment illegal), so parse problems gate the score --
    // but the student still gets every malformed line in one report.
    g.diagnostics = placement_diagnostics(parsed);
    g.reason = g.diagnostics.front().to_string();
    g.report = util::format("PLACEMENT GRADE: parse error (%d problem(s)), "
                            "score 0\n",
                            static_cast<int>(g.diagnostics.size()));
    g.report += util::render_diagnostics(g.diagnostics);
  } else {
    g = grade_placement(problem, grid, parsed.placement, reference_hpwl);
  }
  if (!lint_findings.empty()) {
    g.lint = lint::to_diagnostics(lint_findings);
    std::string head =
        util::format("lint: %d finding(s) before grading\n",
                     static_cast<int>(lint_findings.size()));
    head += util::render_diagnostics(g.lint);
    g.report = head + g.report;
  }
  // Score-neutral semantic findings: sema sniffs the raw upload, so a
  // netlist/CNF/PLA with semantic defects submitted to this portal is
  // explained instead of silently mis-parsed. Placement text has no
  // sema pass -- clean submissions render byte-identically to before.
  const auto sema_report = sema::analyze_text("<submission>", text);
  if (!sema_report.findings.empty()) {
    g.sema = lint::to_diagnostics(sema_report.findings);
    std::string head =
        util::format("sema: %d semantic finding(s) before grading\n",
                     static_cast<int>(g.sema.size()));
    head += util::render_diagnostics(g.sema);
    g.report = head + g.report;
  }
  return g;
}

}  // namespace l2l::grader
