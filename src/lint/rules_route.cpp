// Routing rule packs: the problem file (L2L-Rxxx) and the solution file
// (L2L-Sxxx). Both read the route module's lenient parses:
// route::parse_problem_lenient's defects are R001-R005 and R007, and the
// R006 warnings come from its records; the solution pack reclassifies
// route::parse_solution_lenient's diagnostics and layers the geometric
// rules on top when the problem is available.

#include <algorithm>
#include <cstdint>
#include <utility>

#include "lint/lint.hpp"
#include "route/solution.hpp"
#include "util/strings.hpp"

namespace l2l::lint {

std::vector<Finding> lint_route_problem(const std::string& text) {
  return lint_route_problem(route::parse_problem_lenient(text));
}

std::vector<Finding> lint_route_problem(const route::ParsedProblem& parsed) {
  std::vector<Finding> out;
  auto emit = [&](const char* rule, util::Severity sev, int line,
                  std::string msg, std::string hint = {}) {
    out.push_back({rule, sev, line, line > 0 ? 1 : 0, std::move(msg),
                   std::move(hint)});
  };
  // Indexed by route::ProblemDefect::Kind.
  static constexpr const char* kRule[] = {"L2L-R001", "L2L-R002", "L2L-R003",
                                          "L2L-R004", "L2L-R005", "L2L-R007"};
  for (const auto& d : parsed.defects)
    emit(kRule[static_cast<int>(d.kind)], util::Severity::kError, d.line,
         d.message, d.hint);

  // R006 over each net's pins that are on the grid (all of them without
  // one). Sorted (pin, line) pairs put each point's lines in one run,
  // first line first; every later line of a run repeats the pin.
  const auto& p = parsed.problem;
  std::vector<std::pair<gen::GridPoint, int>> pins;
  for (std::size_t k = 0; k < p.nets.size(); ++k) {
    const auto& net = p.nets[k];
    pins.clear();
    for (std::size_t q = 0; q < net.pins.size(); ++q)
      if (!parsed.has_grid() || p.in_bounds(net.pins[q]))
        pins.emplace_back(net.pins[q], parsed.pin_lines[k][q]);
    std::sort(pins.begin(), pins.end());
    int distinct = 0;
    for (std::size_t q = 0; q < pins.size(); ++q) {
      const auto& [g, line] = pins[q];
      if (q == 0 || g != pins[q - 1].first)
        ++distinct;
      else
        emit("L2L-R006", util::Severity::kWarning, line,
             util::format("net %d repeats pin (%d %d %d)", net.id, g.x, g.y,
                          g.layer));
    }
    if (!net.pins.empty() && distinct < 2)
      emit("L2L-R006", util::Severity::kWarning, parsed.net_lines[k],
           util::format("net %d has %d distinct pin(s); routing needs 2+",
                        net.id, distinct));
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
