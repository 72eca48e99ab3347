// The C-pack: DIMACS CNF semantics without a solver. Duplicate clauses
// (modulo literal order), tautological clauses, pure literals, and
// unit-implied contradictions via occurrence-list BCP -- the facts a
// grader can state about an instance in O(size) before spending any
// solver budget on it.
//
// Hostile-input hygiene: nothing here allocates proportionally to the
// header's claimed variable count; occurrence lists and assignments are
// std::map keyed by the literals actually present in the bytes. The
// clauses come from sat::parse_dimacs_lenient, the parse the solver and
// lint read; a file with any parse defect yields NO findings --
// well-formedness is lint's job (L2L-C0xx), and stacking semantic
// guesses on top of a broken parse would make findings depend on
// recovery heuristics.

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sat/dimacs.hpp"
#include "sema/sema.hpp"

namespace l2l::sema {
namespace {

using util::Severity;

struct Clause {
  std::vector<int> canon;  ///< sorted, deduplicated literals
  int line = 0;            ///< line the clause started on
  bool tautology = false;  ///< contains v and -v
};

}  // namespace

std::vector<Finding> analyze_cnf(const std::string& text) {
  std::vector<Finding> out;
  sat::ParsedDimacs parsed = sat::parse_dimacs_lenient(text);
  if (!parsed.clean()) return out;
  std::vector<Clause> clauses;
  clauses.reserve(parsed.clauses.size());
  for (auto& pc : parsed.clauses) {
    Clause c;
    c.line = pc.line;  // an explicit empty clause anchors at its 0
    c.canon = std::move(pc.lits);
    std::sort(c.canon.begin(), c.canon.end());
    c.canon.erase(std::unique(c.canon.begin(), c.canon.end()), c.canon.end());
    for (std::size_t k = 0; k + 1 < c.canon.size(); ++k)
      if (c.canon[k] == -c.canon[k + 1]) c.tautology = true;
    clauses.push_back(std::move(c));
  }
  auto add = [&](const char* rule, Severity sev, int line, std::string msg,
                 std::string hint) {
    out.push_back(
        {rule, sev, line, line > 0 ? 1 : 0, std::move(msg), std::move(hint)});
  };

  // C101 duplicates + C102 tautologies in one sweep over canonical forms.
  std::map<std::vector<int>, int> first_line;
  for (const auto& c : clauses) {
    if (c.tautology)
      add("L2L-C102", Severity::kWarning, c.line,
          "clause contains a variable and its negation (always satisfied)",
          "delete the clause; it constrains nothing");
    const auto [it, fresh] = first_line.emplace(c.canon, c.line);
    if (!fresh)
      add("L2L-C101", Severity::kWarning, c.line,
          "clause duplicates the clause at line " +
              std::to_string(it->second) + " (modulo literal order)",
          "delete the duplicate");
  }

  // C103 pure literals: variables occurring in one phase only. The note
  // severity is deliberate -- ordinary instances have pure literals and
  // must stay gate-clean; the note is a teaching aid, not a defect.
  struct Phases {
    bool pos = false, neg = false;
    int line = 0;  ///< first clause mentioning the variable
  };
  std::map<int, Phases> vars;
  for (const auto& c : clauses)
    for (const int lit : c.canon) {
      auto& p = vars[std::abs(lit)];
      (lit > 0 ? p.pos : p.neg) = true;
      if (p.line == 0) p.line = c.line;
    }
  for (const auto& [var, p] : vars)
    if (p.pos != p.neg)
      add("L2L-C103", Severity::kNote, p.line,
          "variable " + std::to_string(var) + " occurs only " +
              (p.pos ? "positively" : "negatively") + " (pure literal)",
          "assigning it satisfies every clause it touches");

  // C104 unit propagation: occurrence-list BCP in clause-index order.
  // Tautological clauses are pre-satisfied; the first falsified clause
  // (or conflicting unit) is the finding, then we stop -- one exact
  // contradiction beats a cascade of consequences.
  std::map<int, std::vector<int>> occ;  // literal -> clause indices
  for (std::size_t i = 0; i < clauses.size(); ++i)
    for (const int lit : clauses[i].canon)
      occ[lit].push_back(static_cast<int>(i));
  std::map<int, bool> assign;  // var -> value
  std::vector<bool> satisfied(clauses.size(), false);
  std::vector<int> unassigned(clauses.size(), 0);
  std::vector<int> queue;  // clause indices that became unit (FIFO)
  int conflict_line = 0;
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    if (clauses[i].tautology) satisfied[i] = true;
    unassigned[i] = static_cast<int>(clauses[i].canon.size());
    if (satisfied[i]) continue;
    if (unassigned[i] == 0) {
      conflict_line = clauses[i].line;  // the explicit empty clause
      break;
    }
    if (unassigned[i] == 1) queue.push_back(static_cast<int>(i));
  }
  std::size_t head = 0;
  while (conflict_line == 0 && head < queue.size()) {
    const auto ci = static_cast<std::size_t>(queue[head++]);
    if (satisfied[ci]) continue;
    // The forced literal: the sole literal whose variable is unassigned.
    int forced = 0;
    for (const int lit : clauses[ci].canon)
      if (assign.find(std::abs(lit)) == assign.end()) forced = lit;
    if (forced == 0) continue;  // raced with itself; already handled
    assign[std::abs(forced)] = forced > 0;
    for (const int sat_ci : occ[forced])
      satisfied[static_cast<std::size_t>(sat_ci)] = true;
    for (const int hit : occ[-forced]) {
      const auto h = static_cast<std::size_t>(hit);
      if (satisfied[h]) continue;
      if (--unassigned[h] == 0) {
        conflict_line = clauses[h].line;
        break;
      }
      if (unassigned[h] == 1) queue.push_back(hit);
    }
  }
  if (conflict_line != 0)
    add("L2L-C104", Severity::kError, conflict_line,
        "unit propagation alone falsifies this clause (instance is "
        "unsatisfiable)",
        "the contradiction needs no search; recheck the encoding");

  lint::sort_findings(out);
  return out;
}

}  // namespace l2l::sema
