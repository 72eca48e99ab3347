// DIMACS CNF rule pack (L2L-Cxxx) over sat::parse_dimacs_lenient, the
// parse the solver reads: its defects (header shape, literal range,
// count drift) become the error rules, and the clause-hygiene warnings
// SAT graders care about (duplicates, tautologies, empty clauses, unused
// variables) run over its clauses. Everything is flat and sized by the
// literals in the bytes: each clause is sorted in place, duplicates are
// found by sorting clause indices by their sorted literals, and the used
// variables are one sorted array -- deterministic, and nothing is keyed
// by a value the upload chooses.

#include <algorithm>
#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

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
  const auto& clauses = parsed.clauses;
  std::vector<std::uint32_t> order;  // the non-empty clauses
  std::vector<int> used_vars;        // every occurrence up to the cap
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    const int line = clauses[i].line;
    const auto key = parsed.lits_of(clauses[i]);  // sorted in place
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
      if (var <= kMaxTrackedVars) used_vars.push_back(static_cast<int>(var));
    }
    if (dup_lit)
      emit("L2L-C007", util::Severity::kWarning, line,
           "duplicate literal inside the clause");
    if (tautology)
      emit("L2L-C006", util::Severity::kWarning, line,
           "tautological clause (contains v and -v)",
           "the clause is always true; drop it");
    order.push_back(static_cast<std::uint32_t>(i));
  }

  // L2L-C005: clause indices sorted by sorted literals, ties by index, so
  // each group of equal clauses starts with its first occurrence and
  // every later member names that one's line.
  const auto lits_cmp = [&](std::uint32_t a, std::uint32_t b) {
    const std::span<const int> x = parsed.lits_of(clauses[a]);
    const std::span<const int> y = parsed.lits_of(clauses[b]);
    return std::lexicographical_compare_three_way(x.begin(), x.end(), y.begin(), y.end());
  };
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const auto c = lits_cmp(a, b);
    return c != 0 ? c < 0 : a < b;
  });
  for (std::size_t g = 0; g < order.size();) {
    const std::uint32_t head = order[g];
    std::size_t e = g + 1;
    for (; e < order.size() && lits_cmp(head, order[e]) == 0; ++e)
      emit("L2L-C005", util::Severity::kWarning, clauses[order[e]].line,
           "duplicate clause (first on line " +
               std::to_string(clauses[head].line) + ")");
    g = e;
  }

  const int num_vars = parsed.num_vars;
  if (num_vars >= 0 && num_vars <= kMaxTrackedVars) {
    std::sort(used_vars.begin(), used_vars.end());
    used_vars.erase(std::unique(used_vars.begin(), used_vars.end()), used_vars.end());
    // Variables 1..num_vars the clauses use, and the first gap among them.
    int used = 0, first_unused = 1;
    for (const int v : used_vars) {
      if (v < 1 || v > num_vars) continue;
      ++used;
      if (v == first_unused) ++first_unused;
    }
    const int unused = num_vars - used;
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
