#include "grader/place_grader.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>

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

ParsedPlacement parse_placement_diagnostics(const std::string& text,
                                            int num_cells) {
  ParsedPlacement out;
  auto& gp = out.placement;
  gp.col.assign(static_cast<std::size_t>(num_cells), -1);
  gp.row.assign(static_cast<std::size_t>(num_cells), -1);
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  auto diag = [&](std::string msg) {
    const auto pos = line.find_first_not_of(" \t\r\n");
    const int col = pos == std::string::npos ? 1 : static_cast<int>(pos) + 1;
    out.diagnostics.push_back(util::make_error(lineno, col, std::move(msg)));
  };
  auto excerpt = [](std::string_view t) {
    constexpr std::size_t kMax = 60;
    return std::string(t.size() <= kMax ? t : t.substr(0, kMax));
  };
  while (std::getline(in, line)) {
    ++lineno;
    const auto t = util::trim(line);
    if (t.empty() || t[0] == '#') continue;
    const auto tok = util::split(t);
    if (tok.size() != 4 || tok[0] != "cell") {
      diag("placement: bad line '" + excerpt(t) + "'");
      continue;
    }
    const auto c = util::parse_int(tok[1]);
    const auto col = util::parse_int(tok[2]);
    const auto row = util::parse_int(tok[3]);
    if (!c || !col || !row) {
      diag("placement: bad number in '" + excerpt(t) + "'");
      continue;
    }
    if (*c < 0 || *c >= num_cells) {
      diag(util::format("placement: cell index %d out of range [0, %d)", *c,
                        num_cells));
      continue;
    }
    if (gp.col[static_cast<std::size_t>(*c)] >= 0)
      diag(util::format("placement: cell %d assigned twice", *c));
    gp.col[static_cast<std::size_t>(*c)] = *col;
    gp.row[static_cast<std::size_t>(*c)] = *row;
  }
  int missing = 0;
  int first_missing = -1;
  for (int c = 0; c < num_cells; ++c)
    if (gp.col[static_cast<std::size_t>(c)] < 0) {
      ++missing;
      if (first_missing < 0) first_missing = c;
    }
  if (missing > 0)
    out.diagnostics.push_back(util::make_error(
        0, 0,
        util::format("placement: cell %d missing (%d cells unassigned)",
                     first_missing, missing)));
  return out;
}

place::GridPlacement parse_placement_text(const std::string& text,
                                          int num_cells) {
  auto parsed = parse_placement_diagnostics(text, num_cells);
  if (!parsed.clean())
    throw std::invalid_argument(parsed.diagnostics.front().to_string());
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
  const auto lint_findings = lint::lint_placement(
      text, {problem.num_cells, grid.sites_per_row, grid.rows});

  PlaceGrade g;
  auto parsed = parse_placement_diagnostics(text, problem.num_cells);
  if (!parsed.clean()) {
    // Placement has no per-net partial credit (a single missing cell makes
    // the whole assignment illegal), so parse problems gate the score --
    // but the student still gets every malformed line in one report.
    g.diagnostics = std::move(parsed.diagnostics);
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
