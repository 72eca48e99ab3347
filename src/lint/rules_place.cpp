// Placement rule pack (L2L-Lxxx) over place::parse_placement_lenient,
// the parse the placement grader reads: "cell <id> <col> <row>" text.
// With a PlacementSpec the range/overlap/completeness rules run against
// the assignment's grid; without one only the shape rules apply, so a
// standalone file still lints.

#include <map>

#include "lint/lint.hpp"
#include "place/placement_text.hpp"
#include "util/strings.hpp"

namespace l2l::lint {

std::vector<Finding> lint_placement(const std::string& text,
                                    const PlacementSpec& spec) {
  return lint_placement(place::parse_placement_lenient(text, spec.num_cells),
                        spec);
}

std::vector<Finding> lint_placement(const place::ParsedPlacement& parsed,
                                    const PlacementSpec& spec) {
  std::vector<Finding> out;
  auto emit = [&](const char* rule, util::Severity sev, int line,
                  std::string msg, std::string hint = {}) {
    out.push_back({rule, sev, line, line > 0 ? 1 : 0, std::move(msg),
                   std::move(hint)});
  };

  // Line defects. Repeats and completeness are judged on the records
  // below instead: lint anchors a repeat to the cell's first line and
  // counts any line as presence, whatever its coordinates.
  using Kind = place::PlacementDefect::Kind;
  for (const auto& d : parsed.defects) {
    if (d.kind == Kind::kBadLine)
      emit("L2L-L001", util::Severity::kError, d.line,
           "bad line '" + util::excerpt(d.text) + "'",
           "write 'cell <id> <col> <row>'");
    else if (d.kind == Kind::kBadNumber)
      emit("L2L-L001", util::Severity::kError, d.line,
           "bad number in '" + util::excerpt(d.text) + "'");
    else if (d.kind == Kind::kCellOutOfRange)
      emit("L2L-L003", util::Severity::kError, d.line,
           spec.num_cells >= 0
               ? util::format("cell index %d out of range [0, %d)", d.cell,
                              spec.num_cells)
               : util::format("cell index %d is negative", d.cell));
  }

  std::map<int, int> cell_line;                   // cell id -> first line
  std::map<std::pair<int, int>, int> site_owner;  // (col,row) -> cell id
  for (const auto& l : parsed.lines) {
    const auto [it, fresh] = cell_line.try_emplace(l.cell, l.line);
    if (!fresh) {
      emit("L2L-L002", util::Severity::kError, l.line,
           util::format("cell %d assigned twice (first on line %d)", l.cell,
                        it->second),
           "keep one line per cell");
      continue;
    }
    const bool col_bad = l.col < 0 || (spec.cols >= 0 && l.col >= spec.cols);
    const bool row_bad = l.row < 0 || (spec.rows >= 0 && l.row >= spec.rows);
    if (col_bad || row_bad) {
      emit("L2L-L004", util::Severity::kError, l.line,
           spec.cols >= 0 && spec.rows >= 0
               ? util::format(
                     "site (%d, %d) outside the %d x %d region", l.col, l.row,
                     spec.cols, spec.rows)
               : util::format("negative site coordinate (%d, %d)", l.col,
                              l.row));
      continue;
    }
    const auto [owner, site_fresh] =
        site_owner.try_emplace({l.col, l.row}, l.cell);
    if (!site_fresh)
      emit("L2L-L005", util::Severity::kError, l.line,
           util::format("cell %d overlaps cell %d at site (%d, %d)", l.cell,
                        owner->second, l.col, l.row),
           "every cell needs its own site");
  }
  if (spec.num_cells >= 0) {
    int missing = 0, first_missing = -1;
    for (int c = 0; c < spec.num_cells; ++c)
      if (!cell_line.count(c)) {
        ++missing;
        if (first_missing < 0) first_missing = c;
      }
    if (missing > 0)
      emit("L2L-L006", util::Severity::kError, 0,
           util::format("%d cell(s) unassigned (first: cell %d)", missing,
                        first_missing),
           "every cell needs exactly one 'cell' line");
  }

  sort_findings(out);
  return out;
}

}  // namespace l2l::lint
