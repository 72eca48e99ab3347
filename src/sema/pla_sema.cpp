// The P-pack: two-level PLA semantics on the packed-cube kernels.
// Contained/redundant ON-set rows (P101), intersecting rows that give
// the same output both 0 and 1 (P102), and don't-care rows overlapping
// the ON-set (P103). The repo's espresso front-end ignores `.type` and
// reads '0' output entries as OFF-set everywhere (fr semantics), so the
// contradiction rule runs unconditionally.
//
// Hostile-input hygiene: the containment/intersection rules are O(rows²)
// cube-kernel sweeps, so files beyond kRowCap skip them silently (an
// obs counter records the skip) -- a grader must never let a hostile
// row count buy quadratic work. Rows come from espresso::parse_pla_lenient,
// the parse the minimizer and lint read, so sema accepts exactly what the
// engine accepts (its caps and '2' as don't-care included); a file with
// any parse defect yields no findings -- well-formedness is lint's job
// (L2L-P0xx).

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "cubes/cube.hpp"
#include "espresso/pla.hpp"
#include "obs/metrics.hpp"
#include "sema/sema.hpp"

namespace l2l::sema {
namespace {

using util::Severity;

/// Beyond this many rows the quadratic passes are skipped (silently;
/// "sema.pla.row_cap" counts the skips).
constexpr int kRowCap = 2048;

struct Row {
  cubes::Cube in;    ///< packed input plane
  std::string out;   ///< output plane, '2' read as '-' ('0','1','-','~')
  int line = 0;
};

}  // namespace

std::vector<Finding> analyze_pla(const std::string& text) {
  std::vector<Finding> out;
  const espresso::ParsedPla parsed = espresso::parse_pla_lenient(text);
  if (!parsed.clean()) return out;
  if (static_cast<int>(parsed.rows.size()) > kRowCap) {
    obs::count("sema.pla.row_cap");
    return out;
  }
  const int no = parsed.num_outputs;
  std::vector<Row> rows;
  rows.reserve(parsed.rows.size());
  for (const auto& pr : parsed.rows) {
    Row r{cubes::Cube::parse(pr.in), std::string(pr.out), pr.line};
    std::replace(r.out.begin(), r.out.end(), '2', '-');
    rows.push_back(std::move(r));
  }
  const auto& onames = parsed.output_names;
  auto output_label = [&](int j) {
    if (j < static_cast<int>(onames.size()))
      return "'" + std::string(onames[static_cast<std::size_t>(j)]) + "'";
    return std::string("#") + std::to_string(j);
  };
  auto add = [&](const char* rule, Severity sev, int line, std::string msg,
                 std::string hint) {
    out.push_back(
        {rule, sev, line, line > 0 ? 1 : 0, std::move(msg), std::move(hint)});
  };

  const auto n = rows.size();
  for (std::size_t r = 0; r < n; ++r) {
    // P101: this row's ON-cube is contained in another ON row for the
    // same output (equal cubes flag the later copy; proper containment
    // flags the contained row regardless of order). One finding per row.
    bool flagged101 = false;
    for (int j = 0; j < no && !flagged101; ++j) {
      if (rows[r].out[static_cast<std::size_t>(j)] != '1') continue;
      for (std::size_t s = 0; s < n; ++s) {
        if (s == r || rows[s].out[static_cast<std::size_t>(j)] != '1')
          continue;
        if (!rows[s].in.contains(rows[r].in)) continue;
        if (s > r && rows[s].in == rows[r].in) continue;  // later copy's job
        add("L2L-P101", Severity::kWarning, rows[r].line,
            "ON-set cube is contained in the row at line " +
                std::to_string(rows[s].line) + " for output " +
                output_label(j),
            "delete the redundant row");
        flagged101 = true;
        break;
      }
    }

    // P102 / P103 against strictly earlier rows; one finding per rule
    // per row keeps a pathological all-pairs overlap readable.
    bool flagged102 = false, flagged103 = false;
    for (std::size_t s = 0; s < r && !(flagged102 && flagged103); ++s) {
      if (rows[r].in.intersect(rows[s].in).is_empty()) continue;
      for (int j = 0; j < no; ++j) {
        const char a = rows[s].out[static_cast<std::size_t>(j)];
        const char b = rows[r].out[static_cast<std::size_t>(j)];
        if (!flagged102 && ((a == '1' && b == '0') || (a == '0' && b == '1'))) {
          add("L2L-P102", Severity::kError, rows[r].line,
              "row conflicts with the row at line " +
                  std::to_string(rows[s].line) + ": overlapping cubes give "
                  "output " + output_label(j) + " both 0 and 1",
              "the intersection has no consistent value; split the cubes");
          flagged102 = true;
        }
        const bool dc_vs_on = ((a == '-' || a == '~') && b == '1') ||
                              ((b == '-' || b == '~') && a == '1');
        if (!flagged103 && dc_vs_on) {
          add("L2L-P103", Severity::kNote, rows[r].line,
              "row overlaps the row at line " + std::to_string(rows[s].line) +
                  ": don't-care meets the ON-set for output " +
                  output_label(j),
              "the minimizer resolves the overlap in favor of the ON-set");
          flagged103 = true;
        }
      }
    }
  }

  lint::sort_findings(out);
  return out;
}

}  // namespace l2l::sema
