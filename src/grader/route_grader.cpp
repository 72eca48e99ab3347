#include "grader/route_grader.hpp"

#include <map>
#include <set>

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

  // Solution nets by id.
  std::map<int, const route::NetRoute*> by_id;
  for (const auto& net : solution.nets) by_id[net.net_id] = &net;

  // Global overlap map: first net to claim a cell owns it.
  std::map<GridPoint, int> owner;

  for (const auto& pnet : problem.nets) {
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
    const auto it = by_id.find(pnet.id);
    if (it == by_id.end() || it->second->cells.empty()) {
      ng.reason = "net missing from solution";
      g.nets.push_back(std::move(ng));
      continue;
    }
    const auto& cells = it->second->cells;

    std::set<GridPoint> cell_set;
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
      if (!cell_set.insert(c).second) {
        reason = util::format("duplicate cell (%d %d %d)", c.x, c.y, c.layer);
        break;
      }
      const auto [o, fresh] = owner.try_emplace(c, pnet.id);
      if (!fresh && o->second != pnet.id) {
        reason = util::format("cell (%d %d %d) overlaps net %d", c.x, c.y,
                              c.layer, o->second);
        break;
      }
    }
    if (reason.empty()) {
      for (const auto& pin : pnet.pins)
        if (!cell_set.count(pin)) {
          reason = util::format("pin (%d %d %d) not covered", pin.x, pin.y,
                                pin.layer);
          break;
        }
    }
    if (reason.empty()) {
      // Connectivity: flood fill over the net's cells.
      std::set<GridPoint> seen;
      std::vector<GridPoint> stack{cells.front()};
      while (!stack.empty()) {
        const auto c = stack.back();
        stack.pop_back();
        if (!seen.insert(c).second) continue;
        const GridPoint nbrs[6] = {
            {c.x + 1, c.y, c.layer}, {c.x - 1, c.y, c.layer},
            {c.x, c.y + 1, c.layer}, {c.x, c.y - 1, c.layer},
            {c.x, c.y, c.layer + 1}, {c.x, c.y, c.layer - 1}};
        for (const auto& n : nbrs)
          if (cell_set.count(n)) stack.push_back(n);
      }
      if (seen.size() != cell_set.size()) reason = "net is disconnected";
    }

    if (reason.empty()) {
      ng.legal = true;
      ng.wirelength = static_cast<int>(cells.size());
      ng.vias = route::count_vias(*it->second);
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
