// PLA rule pack (L2L-Pxxx) over espresso::parse_pla_lenient, the parse
// the minimizer reads: its defects (header/plane shape) become the error
// rules, and the two-level consistency rules (duplicate and
// contradictory cubes, dead rows, .p drift) run over its rows. Cube
// comparison is textual on the normalized plane ('2' == '-'), so no
// cover machinery is pulled in and hostile dimensions cost nothing.

#include <map>

#include "espresso/pla.hpp"
#include "lint/lint.hpp"
#include "util/strings.hpp"

namespace l2l::lint {
namespace {

/// '-' and '2' both mean don't-care; normalize for row comparison.
std::string normalize_plane(std::string_view plane) {
  std::string out(plane);
  for (auto& c : out)
    if (c == '2') c = '-';
  return out;
}

}  // namespace

std::vector<Finding> lint_pla(const std::string& text) {
  std::vector<Finding> out;
  auto emit = [&](const char* rule, util::Severity sev, int line,
                  std::string msg, std::string hint = {}) {
    out.push_back({rule, sev, line, line > 0 ? 1 : 0, std::move(msg),
                   std::move(hint)});
  };

  const espresso::ParsedPla parsed = espresso::parse_pla_lenient(text);
  for (const auto& d : parsed.defects) {
    using Kind = espresso::PlaDefect::Kind;
    emit(d.kind == Kind::kStructure    ? "L2L-P001"
         : d.kind == Kind::kInputWidth ? "L2L-P002"
         : d.kind == Kind::kOutputWidth ? "L2L-P003"
                                        : "L2L-P004",
         util::Severity::kError, d.line, d.message, d.hint);
  }

  // Normalized input plane -> (first line, normalized output plane).
  struct RowInfo {
    int line = 0;
    std::string out_plane;
  };
  std::map<std::string, RowInfo> rows;
  for (const auto& row : parsed.rows) {
    if (!row.ok) continue;
    bool any_effect = false;
    for (const char c : row.out)
      if (c != '0' && c != '~') any_effect = true;
    if (!any_effect && parsed.num_outputs > 0)
      emit("L2L-P008", util::Severity::kWarning, row.line,
           "row contributes to no output (all-0/~ output plane)",
           "delete the row or mark the intended outputs");
    const auto key = normalize_plane(row.in);
    const auto norm_out = normalize_plane(row.out);
    const auto [it, fresh] = rows.try_emplace(key, RowInfo{row.line, norm_out});
    if (fresh) continue;
    if (it->second.out_plane == norm_out) {
      emit("L2L-P005", util::Severity::kWarning, row.line,
           "duplicate cube row (first on line " +
               std::to_string(it->second.line) + ")");
      continue;
    }
    // Same input cube, different output planes: contradiction when one
    // row asserts ON ('1') and the other OFF ('0') for the same output.
    bool contradiction = false;
    for (std::size_t k = 0;
         k < norm_out.size() && k < it->second.out_plane.size(); ++k) {
      const char a = it->second.out_plane[k], b = norm_out[k];
      if ((a == '1' && b == '0') || (a == '0' && b == '1')) contradiction = true;
    }
    if (contradiction)
      emit("L2L-P006", util::Severity::kWarning, row.line,
           "contradictory cube: same inputs as line " +
               std::to_string(it->second.line) +
               " with an inconsistent output phase",
           "pick one phase per (cube, output) pair");
  }

  const int actual_rows = static_cast<int>(parsed.rows.size());
  if (parsed.declared_rows >= 0 && parsed.declared_rows != actual_rows)
    emit("L2L-P007", util::Severity::kWarning, parsed.declared_rows_line,
         util::format(".p declares %d row(s) but the file has %d",
                      parsed.declared_rows, actual_rows),
         "update .p (it is advisory but tools cross-check it)");

  sort_findings(out);
  return out;
}

}  // namespace l2l::lint
