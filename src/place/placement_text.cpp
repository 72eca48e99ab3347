#include "place/placement_text.hpp"

#include "util/strings.hpp"

namespace l2l::place {

ParsedPlacement parse_placement_lenient(std::string_view text,
                                        int num_cells) {
  ParsedPlacement out;
  auto& gp = out.placement;
  const auto cells = static_cast<std::size_t>(num_cells > 0 ? num_cells : 0);
  gp.col.assign(cells, -1);
  gp.row.assign(cells, -1);
  std::vector<bool> seen(cells, false);
  using Kind = PlacementDefect::Kind;
  util::for_each_line(text, [&](int lineno, std::string_view raw) {
    const auto t = util::trim(raw);
    if (t.empty() || t[0] == '#') return true;
    const int column = util::content_column(raw);
    // Exactly four tokens, walked in place (a token is never empty).
    util::TokenWalker walk(t);
    std::string_view tok[4];
    for (auto& v : tok) v = walk.next();
    if (tok[3].empty() || !walk.next().empty() || tok[0] != "cell") {
      out.defects.push_back({Kind::kBadLine, lineno, column, t});
      return true;
    }
    const auto c = util::parse_int(tok[1]);
    const auto col = util::parse_int(tok[2]);
    const auto row = util::parse_int(tok[3]);
    if (!c || !col || !row) {
      out.defects.push_back({Kind::kBadNumber, lineno, column, t});
      return true;
    }
    if (*c < 0 || (num_cells >= 0 && *c >= num_cells)) {
      out.defects.push_back({Kind::kCellOutOfRange, lineno, column, {}, *c});
      return true;
    }
    if (num_cells >= 0) {
      const auto k = static_cast<std::size_t>(*c);
      if (seen[k])
        out.defects.push_back({Kind::kDuplicateCell, lineno, column, {}, *c});
      seen[k] = true;
      gp.col[k] = *col;
      gp.row[k] = *row;
    }
    out.lines.push_back({*c, *col, *row, lineno});
    return true;
  });
  int missing = 0, first_missing = -1;
  for (int c = 0; c < num_cells; ++c)
    if (gp.col[static_cast<std::size_t>(c)] < 0) {
      ++missing;
      if (first_missing < 0) first_missing = c;
    }
  if (missing > 0)
    out.defects.push_back(
        {Kind::kMissingCells, 0, 0, {}, first_missing, missing});
  return out;
}

}  // namespace l2l::place
