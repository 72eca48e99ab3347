// Placement rule pack (L2L-Lxxx) over place::parse_placement_lenient,
// the parse the placement grader reads: "cell <id> <col> <row>" text.
// With a PlacementSpec the range/overlap/completeness rules run against
// the assignment's grid; without one only the shape rules apply, so a
// standalone file still lints. Repeats and overlaps are found by
// sorting the lines present, so a spec-less upload with ids and
// coordinates up to INT_MAX costs no more than its bytes.

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

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

  // Repeats and overlaps by sorting, not hashing: (key, line index)
  // pairs sorted, so each key's lines form one run in file order and the
  // run's head is its first line. That costs O(N log N) whatever ids and
  // sites the upload picks (a table keyed on them could be steered into
  // long probe chains), and a spec-less upload with ids and coordinates
  // up to INT_MAX costs no more than its bytes.
  const auto& lines = parsed.lines;
  const std::size_t n = lines.size();
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keys;
  keys.reserve(n);
  // Sorts `keys`; for each line in them, the first line of its key's run
  // (itself when it leads). Lines not in `keys` map to 0.
  const auto first_of_run = [&] {
    std::sort(keys.begin(), keys.end());
    std::vector<std::uint32_t> head(n, 0);
    for (std::size_t k = 0; k < keys.size(); ++k)
      head[keys[k].second] = k > 0 && keys[k].first == keys[k - 1].first
                                 ? head[keys[k - 1].second]
                                 : keys[k].second;
    return head;
  };
  const auto in_range = [&](const place::PlacementLine& l) {
    return l.col >= 0 && (spec.cols < 0 || l.col < spec.cols) &&
           l.row >= 0 && (spec.rows < 0 || l.row < spec.rows);
  };

  // A parsed line's cell id is never negative.
  for (std::size_t i = 0; i < n; ++i)
    keys.emplace_back(static_cast<std::uint64_t>(lines[i].cell),
                      static_cast<std::uint32_t>(i));
  const std::vector<std::uint32_t> first_line = first_of_run();
  if (spec.num_cells >= 0) {
    // The missing cells are [0, num_cells) minus the ids present; the
    // first is where the ascending ids first skip a value.
    int present = 0, first_missing = 0;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const auto cell = static_cast<int>(keys[k].first);
      if (cell >= spec.num_cells) break;
      if (k > 0 && keys[k].first == keys[k - 1].first) continue;
      ++present;
      if (cell == first_missing) ++first_missing;
    }
    const int missing = spec.num_cells - present;
    if (missing > 0)
      emit("L2L-L006", util::Severity::kError, 0,
           util::format("%d cell(s) unassigned (first: cell %d)", missing,
                        first_missing),
           "every cell needs exactly one 'cell' line");
  }

  // The sites of the in-range first lines; both coordinates are >= 0.
  keys.clear();
  for (std::size_t i = 0; i < n; ++i)
    if (first_line[i] == i && in_range(lines[i]))
      keys.emplace_back(static_cast<std::uint64_t>(lines[i].col) << 32 |
                            static_cast<std::uint32_t>(lines[i].row),
                        static_cast<std::uint32_t>(i));
  const std::vector<std::uint32_t> site_owner = first_of_run();

  for (std::size_t i = 0; i < n; ++i) {
    const auto& l = lines[i];
    if (first_line[i] != i) {
      emit("L2L-L002", util::Severity::kError, l.line,
           util::format("cell %d assigned twice (first on line %d)", l.cell,
                        lines[first_line[i]].line),
           "keep one line per cell");
      continue;
    }
    if (!in_range(l)) {
      emit("L2L-L004", util::Severity::kError, l.line,
           spec.cols >= 0 && spec.rows >= 0
               ? util::format(
                     "site (%d, %d) outside the %d x %d region", l.col, l.row,
                     spec.cols, spec.rows)
               : util::format("negative site coordinate (%d, %d)", l.col,
                              l.row));
      continue;
    }
    if (site_owner[i] != i)
      emit("L2L-L005", util::Severity::kError, l.line,
           util::format("cell %d overlaps cell %d at site (%d, %d)", l.cell,
                        lines[site_owner[i]].cell, l.col, l.row),
           "every cell needs its own site");
  }

  sort_findings(out);
  return out;
}

}  // namespace l2l::lint
