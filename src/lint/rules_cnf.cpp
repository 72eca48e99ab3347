// DIMACS CNF rule pack (L2L-Cxxx) over sat::parse_dimacs_lenient, the
// parse the solver reads: its defects (header shape, literal range,
// count drift) become the error rules, and the clause-hygiene warnings
// SAT graders care about (duplicates, tautologies, empty clauses, unused
// variables) run over its clauses. Clause comparison uses sorted literal
// keys in a std::map -- deterministic, no hashing, no allocation
// proportional to a hostile header.

#include <algorithm>
#include <map>
#include <set>

#include "lint/lint.hpp"
#include "sat/dimacs.hpp"
#include "util/strings.hpp"

namespace l2l::lint {

std::vector<Finding> lint_cnf(const std::string& text) {
  std::vector<Finding> out;
  auto emit = [&](const char* rule, util::Severity sev, int line,
                  std::string msg, std::string hint = {}) {
    out.push_back({rule, sev, line, line > 0 ? 1 : 0, std::move(msg),
                   std::move(hint)});
  };

  sat::ParsedDimacs parsed = sat::parse_dimacs_lenient(text);
  for (const auto& d : parsed.defects) {
    using Kind = sat::DimacsDefect::Kind;
    emit(d.kind == Kind::kHeader    ? "L2L-C001"
         : d.kind == Kind::kLiteral ? "L2L-C002"
                                    : "L2L-C003",
         util::Severity::kError, d.line, d.message, d.hint);
  }

  // Clause hygiene over every clause, the unterminated tail included.
  // Cap the per-variable bookkeeping against hostile headers: the
  // unused-variable rule is skipped beyond the cap.
  constexpr int kMaxTrackedVars = 1 << 20;
  std::map<std::vector<int>, int> seen;  // sorted clause -> first line
  std::set<int> used_vars;
  for (const auto& clause : parsed.clauses) {
    const int line = clause.line;
    const auto key = parsed.lits_of(clause);  // sorted in place
    if (key.empty()) {
      emit("L2L-C004", util::Severity::kWarning, line,
           "empty clause: the formula is trivially unsatisfiable");
      continue;
    }
    std::sort(key.begin(), key.end());
    const bool dup_lit = std::adjacent_find(key.begin(), key.end()) != key.end();
    const bool tautology = sat::has_complementary_pair(key);
    for (const int lit : key) {
      const long long var = lit > 0 ? lit : -static_cast<long long>(lit);
      if (var <= kMaxTrackedVars) used_vars.insert(static_cast<int>(var));
    }
    if (dup_lit)
      emit("L2L-C007", util::Severity::kWarning, line,
           "duplicate literal inside the clause");
    if (tautology)
      emit("L2L-C006", util::Severity::kWarning, line,
           "tautological clause (contains v and -v)",
           "the clause is always true; drop it");
    const auto [it, fresh] =
        seen.try_emplace(std::vector<int>(key.begin(), key.end()), line);
    if (!fresh)
      emit("L2L-C005", util::Severity::kWarning, line,
           "duplicate clause (first on line " + std::to_string(it->second) +
               ")");
  }
  const int num_vars = parsed.num_vars;
  if (num_vars >= 0 && num_vars <= kMaxTrackedVars) {
    int unused = 0, first_unused = 0;
    for (int v = 1; v <= num_vars; ++v)
      if (!used_vars.count(v)) {
        ++unused;
        if (first_unused == 0) first_unused = v;
      }
    if (unused > 0)
      emit("L2L-C008", util::Severity::kWarning, 0,
           util::format("%d declared variable(s) never appear (first: %d)",
                        unused, first_unused),
           "shrink the variable count or reference them");
  }

  sort_findings(out);
  return out;
}

}  // namespace l2l::lint
