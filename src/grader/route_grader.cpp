#include "grader/route_grader.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "lint/lint.hpp"
#include "obs/trace.hpp"
#include "sema/sema.hpp"
#include "util/strings.hpp"

namespace l2l::grader {

using gen::GridPoint;

RouteGrade grade_routing(const gen::RoutingProblem& problem,
                         const route::RouteSolution& solution,
                         const util::Budget* budget) {
  obs::ScopedSpan span("grader.route.grade", "grader");
  RouteGrade g;
  g.total_nets = static_cast<int>(problem.nets.size());

  // Solution nets by id: (id, block index) pairs sorted, so a lookup is
  // a binary search and the last block with an id is the last pair of
  // its run. Ids come from the upload; a sort costs O(N log N) whatever
  // they are, where a hash table keyed on them can be driven into long
  // probe chains.
  std::vector<std::pair<int, std::uint32_t>> by_id(solution.nets.size());
  for (std::size_t b = 0; b < by_id.size(); ++b)
    by_id[b] = {solution.nets[b].net_id, static_cast<std::uint32_t>(b)};
  std::sort(by_id.begin(), by_id.end());

  // One mark per grid cell, indexed (layer * height + y) * width + x like
  // the router's search arena. `owner` is the first net to claim the cell
  // (an index into problem.nets, -1 while free). `member` and `seen` hold
  // the stamp (net index + 1) of the last net that listed the cell and of
  // the last flood fill that reached it, so no mark is cleared between
  // nets.
  struct CellMark {
    int owner = -1;
    std::uint32_t member = 0;
    std::uint32_t seen = 0;
  };
  const auto width = static_cast<std::size_t>(std::max(problem.width, 0));
  const auto plane =
      width * static_cast<std::size_t>(std::max(problem.height, 0));
  std::vector<CellMark> marks(plane * static_cast<std::size_t>(
                                          std::max(problem.num_layers, 0)));
  const auto index = [&](const GridPoint& c) {
    return static_cast<std::size_t>(c.layer) * plane +
           static_cast<std::size_t>(c.y) * width +
           static_cast<std::size_t>(c.x);
  };
  std::vector<GridPoint> stack;

  for (std::size_t k = 0; k < problem.nets.size(); ++k) {
    const auto& pnet = problem.nets[k];
    // Resource guard: one step per net graded. Exhaustion keeps the
    // grades computed so far; ungraded nets earn nothing.
    if (budget && (!budget->consume(1) || budget->exhausted())) {
      g.status = budget->status();
      if (g.status.ok())
        g.status = util::Status::budget("grading budget exhausted");
      break;
    }
    NetGrade ng;
    ng.net_id = pnet.id;
    const auto last = std::upper_bound(
        by_id.begin(), by_id.end(),
        std::pair(pnet.id, std::numeric_limits<std::uint32_t>::max()));
    const route::NetRoute* found =
        last == by_id.begin() || std::prev(last)->first != pnet.id
            ? nullptr
            : &solution.nets[std::prev(last)->second];
    if (found == nullptr || found->cells.empty()) {
      ng.reason = "net missing from solution";
      g.nets.push_back(std::move(ng));
      continue;
    }
    const auto& cells = found->cells;
    const auto stamp = static_cast<std::uint32_t>(k + 1);

    // Checks in order: bounds, obstacle, duplicate, overlap. A net that
    // fails keeps ownership of the cells it claimed before the failure.
    std::string reason;
    for (const auto& c : cells) {
      if (!problem.in_bounds(c)) {
        reason = util::format("cell (%d %d %d) out of bounds", c.x, c.y, c.layer);
        break;
      }
      if (problem.is_blocked(c)) {
        reason = util::format("cell (%d %d %d) on an obstacle", c.x, c.y, c.layer);
        break;
      }
      CellMark& m = marks[index(c)];
      if (m.member == stamp) {
        reason = util::format("duplicate cell (%d %d %d)", c.x, c.y, c.layer);
        break;
      }
      m.member = stamp;
      if (m.owner < 0) {
        m.owner = static_cast<int>(k);
      } else if (problem.nets[static_cast<std::size_t>(m.owner)].id != pnet.id) {
        reason = util::format(
            "cell (%d %d %d) overlaps net %d", c.x, c.y, c.layer,
            problem.nets[static_cast<std::size_t>(m.owner)].id);
        break;
      }
    }
    if (reason.empty()) {
      for (const auto& pin : pnet.pins)
        if (!problem.in_bounds(pin) || marks[index(pin)].member != stamp) {
          reason = util::format("pin (%d %d %d) not covered", pin.x, pin.y,
                                pin.layer);
          break;
        }
    }
    if (reason.empty()) {
      // Connectivity: flood fill over the net's cells from the first one.
      std::size_t reached = 1;
      marks[index(cells.front())].seen = stamp;
      stack.assign(1, cells.front());
      while (!stack.empty()) {
        const auto c = stack.back();
        stack.pop_back();
        const GridPoint nbrs[6] = {
            {c.x + 1, c.y, c.layer}, {c.x - 1, c.y, c.layer},
            {c.x, c.y + 1, c.layer}, {c.x, c.y - 1, c.layer},
            {c.x, c.y, c.layer + 1}, {c.x, c.y, c.layer - 1}};
        for (const auto& n : nbrs) {
          if (!problem.in_bounds(n)) continue;
          CellMark& m = marks[index(n)];
          if (m.member != stamp || m.seen == stamp) continue;
          m.seen = stamp;
          ++reached;
          stack.push_back(n);
        }
      }
      if (reached != cells.size()) reason = "net is disconnected";
    }

    if (reason.empty()) {
      ng.legal = true;
      ng.wirelength = static_cast<int>(cells.size());
      // A via is a layer-0 cell whose (x, y) the net also takes on any
      // upper layer (route::count_vias).
      for (const auto& c : cells) {
        if (c.layer != 0) continue;
        for (int layer = 1; layer < problem.num_layers; ++layer)
          if (marks[index({c.x, c.y, layer})].member == stamp) {
            ++ng.vias;
            break;
          }
      }
      g.total_wirelength += ng.wirelength;
      g.total_vias += ng.vias;
      ++g.legal_nets;
    } else {
      ng.reason = std::move(reason);
    }
    g.nets.push_back(std::move(ng));
  }

  g.score = g.total_nets > 0
                ? 100.0 * g.legal_nets / static_cast<double>(g.total_nets)
                : 0.0;

  g.report = util::format("ROUTING GRADE: %d/%d nets legal, score %.1f\n",
                          g.legal_nets, g.total_nets, g.score);
  if (!g.status.ok())
    g.report += util::format("grading stopped early: %s\n",
                             g.status.to_string().c_str());
  g.report += util::format("total wirelength %d, total vias %d\n",
                           g.total_wirelength, g.total_vias);
  for (const auto& ng : g.nets) {
    if (ng.legal)
      g.report += util::format("  net %d: OK (wire %d, vias %d)\n", ng.net_id,
                               ng.wirelength, ng.vias);
    else
      g.report += util::format("  net %d: FAIL (%s)\n", ng.net_id,
                               ng.reason.c_str());
  }
  return g;
}

RouteGrade grade_routing_text(const gen::RoutingProblem& problem,
                              const std::string& solution_text,
                              const util::Budget* budget) {
  const auto parsed = route::parse_solution_lenient(solution_text);
  RouteGrade g = grade_routing(problem, parsed.solution, budget);
  if (!parsed.clean()) {
    g.diagnostics = parsed.diagnostics;
    // Partial credit stands on the salvaged nets; the header makes the
    // parse failure unmissable and the anchored list tells the student
    // exactly which lines to fix.
    std::string head = util::format(
        "parse error: %d malformed region(s); well-formed nets still "
        "graded\n",
        static_cast<int>(parsed.diagnostics.size()));
    head += util::render_diagnostics(parsed.diagnostics);
    g.report = head + g.report;
  }
  // Pre-grade lint: the L2L-Sxxx pack with the problem so the geometric
  // rules fire too. Stable rule IDs ride along in the report; the score
  // above is untouched, and a clean submission has zero findings.
  const auto lint_findings = lint::lint_route_solution(parsed, &problem);
  if (!lint_findings.empty()) {
    g.lint = lint::to_diagnostics(lint_findings);
    std::string head =
        util::format("lint: %d finding(s) before grading\n",
                     static_cast<int>(lint_findings.size()));
    head += util::render_diagnostics(g.lint);
    g.report = head + g.report;
  }
  // Score-neutral semantic findings, same contract as the lint block: a
  // routing solution has no sema pass, so clean submissions render
  // byte-identically; a misdirected netlist/CNF/PLA gets explained.
  const auto sema_report = sema::analyze_text("<submission>", solution_text);
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
