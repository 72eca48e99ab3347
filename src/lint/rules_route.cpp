// Routing rule packs: the problem file (L2L-Rxxx) and the solution file
// (L2L-Sxxx). The problem scanner is its own lenient pass (the strict
// parser throws on the first defect; lint wants all of them with line
// anchors). The solution pack reuses route::parse_solution_lenient for
// structure and layers the geometric rules on top when the problem is
// available.

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>

#include "lint/lint.hpp"
#include "route/solution.hpp"
#include "util/strings.hpp"

namespace l2l::lint {
namespace {

/// "(x y l)" -> point; nullopt on any defect.
std::optional<gen::GridPoint> parse_point(const std::string& t) {
  const auto tok = util::split(t, "() \t");
  if (tok.size() != 3) return std::nullopt;
  const auto x = util::parse_int(tok[0]);
  const auto y = util::parse_int(tok[1]);
  const auto l = util::parse_int(tok[2]);
  if (!x || !y || !l) return std::nullopt;
  return gen::GridPoint{*x, *y, *l};
}

}  // namespace

std::vector<Finding> lint_route_problem(const std::string& text) {
  std::vector<Finding> out;
  auto emit = [&](const char* rule, util::Severity sev, int line,
                  std::string msg, std::string hint = {}) {
    out.push_back({rule, sev, line, line > 0 ? 1 : 0, std::move(msg),
                   std::move(hint)});
  };

  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  auto next_line = [&]() -> std::optional<std::string> {
    while (std::getline(in, raw)) {
      ++lineno;
      const auto t = util::trim(raw);
      if (!t.empty()) return std::string(t);
    }
    return std::nullopt;
  };

  // Header + caps (mirrors route::parse_problem's hostile-header guards).
  constexpr int kMaxSide = 1 << 16;
  constexpr int kMaxLayers = 64;
  constexpr long long kMaxCells = 1LL << 26;
  gen::RoutingProblem p;
  bool grid_ok = false;
  {
    const auto l = next_line();
    if (!l) {
      emit("L2L-R001", util::Severity::kError, 0, "empty problem file");
      return out;
    }
    const auto tok = util::split(*l);
    std::optional<int> w, h, nl;
    if (tok.size() == 4 && tok[0] == "grid") {
      w = util::parse_int(tok[1]);
      h = util::parse_int(tok[2]);
      nl = util::parse_int(tok[3]);
    }
    if (!w || !h || !nl) {
      emit("L2L-R001", util::Severity::kError, lineno,
           "missing or malformed grid header '" + util::excerpt(*l) + "'",
           "write 'grid <width> <height> <layers>'");
      sort_findings(out);
      return out;  // everything below needs the grid
    }
    if (*w < 1 || *h < 1 || *w > kMaxSide || *h > kMaxSide ||
        *nl < 1 || *nl > kMaxLayers ||
        static_cast<long long>(*w) * *h * *nl > kMaxCells) {
      emit("L2L-R002", util::Severity::kError, lineno,
           util::format("grid %d x %d x %d outside the sane range",
                        *w, *h, *nl),
           util::format("sides <= %d, layers <= %d, cells <= %lld",
                        kMaxSide, kMaxLayers, kMaxCells));
    } else {
      p.width = *w;
      p.height = *h;
      p.num_layers = *nl;
      p.blocked.assign(
          static_cast<std::size_t>(p.num_layers),
          std::vector<bool>(static_cast<std::size_t>(p.width) *
                                static_cast<std::size_t>(p.height),
                            false));
      grid_ok = true;
    }
  }

  // Obstacles: off-grid ones are R003-adjacent but structural -- report
  // as R001 (the strict parser rejects them); in-bounds ones fill the
  // blocked map the pin rules check against.
  {
    const auto l = next_line();
    const auto tok = l ? util::split(*l) : std::vector<std::string>{};
    std::optional<int> count;
    if (tok.size() == 2 && tok[0] == "obstacles")
      count = util::parse_int(tok[1]);
    if (!count || *count < 0) {
      emit("L2L-R001", util::Severity::kError, l ? lineno : 0,
           "missing or malformed obstacles header",
           "write 'obstacles <count>' after the grid line");
      sort_findings(out);
      return out;
    }
    for (int k = 0; k < *count; ++k) {
      const auto pl = next_line();
      if (!pl) {
        emit("L2L-R001", util::Severity::kError, lineno,
             util::format("file ends after %d of %d obstacle(s)", k,
                          *count));
        sort_findings(out);
        return out;
      }
      const auto g = parse_point(*pl);
      if (!g) {
        emit("L2L-R001", util::Severity::kError, lineno,
             "bad obstacle point '" + util::excerpt(*pl) + "'",
             "write '(x y layer)'");
        continue;
      }
      if (!grid_ok) continue;
      if (!p.in_bounds(*g)) {
        emit("L2L-R001", util::Severity::kError, lineno,
             util::format("obstacle (%d %d %d) off-grid", g->x, g->y,
                          g->layer));
        continue;
      }
      p.blocked[static_cast<std::size_t>(g->layer)]
               [static_cast<std::size_t>(g->y) *
                    static_cast<std::size_t>(p.width) +
                static_cast<std::size_t>(g->x)] = true;
    }
  }

  // Nets.
  {
    const auto l = next_line();
    const auto tok = l ? util::split(*l) : std::vector<std::string>{};
    std::optional<int> count;
    if (tok.size() == 2 && tok[0] == "nets") count = util::parse_int(tok[1]);
    if (!count || *count < 0) {
      emit("L2L-R001", util::Severity::kError, l ? lineno : 0,
           "missing or malformed nets header",
           "write 'nets <count>' after the obstacle list");
      sort_findings(out);
      return out;
    }
    std::map<int, int> net_line;  // id -> first line
    for (int k = 0; k < *count; ++k) {
      const auto hl = next_line();
      if (!hl) {
        emit("L2L-R001", util::Severity::kError, lineno,
             util::format("file ends after %d of %d net(s)", k, *count));
        break;
      }
      const auto htok = util::split(*hl);
      std::optional<int> id, pins;
      if (htok.size() == 3 && htok[0] == "net") {
        id = util::parse_int(htok[1]);
        pins = util::parse_int(htok[2]);
      }
      if (!id || !pins || *pins < 0) {
        emit("L2L-R001", util::Severity::kError, lineno,
             "bad net header '" + util::excerpt(*hl) + "'",
             "write 'net <id> <pin-count>'");
        break;  // pin lines are now unanchored; stop instead of cascading
      }
      const int net_header_line = lineno;
      const auto [it, fresh] = net_line.try_emplace(*id, net_header_line);
      if (!fresh)
        emit("L2L-R005", util::Severity::kError, net_header_line,
             util::format("duplicate net id %d (first on line %d)", *id,
                          it->second));
      std::set<gen::GridPoint> distinct;
      int parsed_pins = 0;
      for (int q = 0; q < *pins; ++q) {
        const auto pl = next_line();
        if (!pl) {
          emit("L2L-R001", util::Severity::kError, lineno,
               util::format("file ends after %d of %d pin(s) of net %d", q,
                            *pins, *id));
          break;
        }
        const auto g = parse_point(*pl);
        if (!g) {
          emit("L2L-R001", util::Severity::kError, lineno,
               "bad pin point '" + util::excerpt(*pl) + "'");
          continue;
        }
        ++parsed_pins;
        if (grid_ok && !p.in_bounds(*g)) {
          emit("L2L-R003", util::Severity::kError, lineno,
               util::format("pin (%d %d %d) of net %d off-grid", g->x, g->y,
                            g->layer, *id));
          continue;
        }
        if (grid_ok && p.is_blocked(*g))
          emit("L2L-R004", util::Severity::kError, lineno,
               util::format("pin (%d %d %d) of net %d on a blocked cell",
                            g->x, g->y, g->layer, *id),
               "a pin under an obstacle can never be reached");
        if (!distinct.insert(*g).second)
          emit("L2L-R006", util::Severity::kWarning, lineno,
               util::format("net %d repeats pin (%d %d %d)", *id, g->x,
                            g->y, g->layer));
      }
      if (parsed_pins > 0 && distinct.size() < 2)
        emit("L2L-R006", util::Severity::kWarning, net_header_line,
             util::format("net %d has %d distinct pin(s); routing needs 2+",
                          *id, static_cast<int>(distinct.size())));
    }
  }

  sort_findings(out);
  return out;
}

std::vector<Finding> lint_route_solution(const std::string& text,
                                         const gen::RoutingProblem* problem) {
  return lint_route_solution(route::parse_solution_lenient(text), problem);
}

std::vector<Finding> lint_route_solution(const route::ParsedSolution& parsed,
                                         const gen::RoutingProblem* problem) {
  std::vector<Finding> out;
  auto emit = [&](const char* rule, util::Severity sev, int line,
                  std::string msg, std::string hint = {}) {
    out.push_back({rule, sev, line, line > 0 ? 1 : 0, std::move(msg),
                   std::move(hint)});
  };

  // Structure: the lenient grader parse already anchors every malformed
  // region; reclassify its findings under stable rule IDs.
  for (const auto& d : parsed.diagnostics) {
    const bool count_drift =
        d.message.find("net count mismatch") != std::string::npos;
    out.push_back({count_drift ? "L2L-S006" : "L2L-S001",
                   count_drift ? util::Severity::kWarning
                               : util::Severity::kError,
                   d.line, d.column, d.message, ""});
  }

  // Semantics over the salvaged nets. Line anchors are gone after the
  // parse (the grader's structures carry none), so these findings are
  // net-anchored instead: line 0 with the net id in the message.
  // S002 fires at an id's second block. The (id, block index) pairs are
  // sorted, so each id's blocks form one run in upload order: O(N log N)
  // whatever ids the upload picks.
  const auto& nets = parsed.solution.nets;
  std::vector<std::pair<int, std::uint32_t>> ids(nets.size());
  for (std::size_t b = 0; b < ids.size(); ++b)
    ids[b] = {nets[b].net_id, static_cast<std::uint32_t>(b)};
  std::sort(ids.begin(), ids.end());
  std::vector<char> second_block(nets.size(), 0);
  for (std::size_t k = 1; k < ids.size(); ++k)
    if (ids[k].first == ids[k - 1].first &&
        (k == 1 || ids[k - 2].first != ids[k].first))
      second_block[ids[k].second] = 1;
  // S005 looks each block's id up in the problem's sorted net ids.
  std::vector<int> known_ids;
  if (problem) {
    known_ids.reserve(problem->nets.size());
    for (const auto& pnet : problem->nets) known_ids.push_back(pnet.id);
    std::sort(known_ids.begin(), known_ids.end());
  }
  for (std::size_t b = 0; b < nets.size(); ++b) {
    const auto& net = nets[b];
    if (second_block[b])
      emit("L2L-S002", util::Severity::kError, 0,
           util::format("net id %d appears more than once", net.net_id),
           "one block per net; merge the cell lists");
    if (!problem) continue;
    if (!std::binary_search(known_ids.begin(), known_ids.end(), net.net_id))
      emit("L2L-S005", util::Severity::kWarning, 0,
           util::format("net id %d is not part of the problem", net.net_id));
    int off_grid = 0, on_obstacle = 0;
    gen::GridPoint first_off{}, first_on{};
    for (const auto& c : net.cells) {
      if (!problem->in_bounds(c)) {
        if (off_grid++ == 0) first_off = c;
      } else if (problem->is_blocked(c)) {
        if (on_obstacle++ == 0) first_on = c;
      }
    }
    if (off_grid > 0)
      emit("L2L-S003", util::Severity::kError, 0,
           util::format("net %d: %d cell(s) off-grid (first: (%d %d %d))",
                        net.net_id, off_grid, first_off.x, first_off.y,
                        first_off.layer));
    if (on_obstacle > 0)
      emit("L2L-S004", util::Severity::kError, 0,
           util::format(
               "net %d: %d cell(s) on obstacles (first: (%d %d %d))",
               net.net_id, on_obstacle, first_on.x, first_on.y,
               first_on.layer));
  }

  sort_findings(out);
  return out;
}

}  // namespace l2l::lint
