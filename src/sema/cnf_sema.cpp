// The C-pack: DIMACS CNF semantics without a solver. Duplicate clauses
// (modulo literal order), tautological clauses, pure literals, and
// unit-implied contradictions via occurrence-list BCP -- the facts a
// grader can state about an instance in O(size) before spending any
// solver budget on it.
//
// Everything is flat arrays sized by the literals actually present in
// the bytes, never by the header's claimed variable count: the canonical
// clauses share one literal array with per-clause offsets, duplicates
// are found by sorting clause indices, the variables present get dense
// ids by a radix sort of their occurrences, and the BCP reads CSR
// occurrence lists and one byte per variable. The clauses come from
// sat::parse_dimacs_lenient, the parse the solver and lint read; a file
// with any parse defect yields NO findings -- well-formedness is lint's
// job (L2L-C0xx), and stacking semantic guesses on top of a broken parse
// would make findings depend on recovery heuristics.

#include <algorithm>
#include <array>
#include <compare>
#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "sat/dimacs.hpp"
#include "sema/sema.hpp"

namespace l2l::sema {

using util::Severity;

std::vector<Finding> analyze_cnf(const std::string& text) {
  std::vector<Finding> out;
  sat::ParsedDimacs parsed = sat::parse_dimacs_lenient(text);
  if (!parsed.clean()) return out;
  auto add = [&](const char* rule, Severity sev, int line, std::string msg,
                 std::string hint) {
    out.push_back(
        {rule, sev, line, line > 0 ? 1 : 0, std::move(msg), std::move(hint)});
  };

  // Canonical forms in place: each clause's literals sorted and
  // deduplicated, packed to the front of parsed.lits, so clause i is
  // lits[start[i], start[i + 1]). An explicit empty clause anchors at
  // its 0.
  auto& lits = parsed.lits;
  const auto& clauses = parsed.clauses;
  const std::size_t n = clauses.size();
  std::vector<std::size_t> start(n + 1, 0);
  std::vector<char> tautology(n, 0);  ///< some v, -v pair
  std::size_t packed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto raw = parsed.lits_of(clauses[i]);
    std::sort(raw.begin(), raw.end());
    start[i] = packed;
    for (std::size_t k = 0; k < raw.size(); ++k)
      if (k == 0 || raw[k] != raw[k - 1]) lits[packed++] = raw[k];
    tautology[i] = sat::has_complementary_pair(
        std::span<const int>(lits.data() + start[i], packed - start[i]));
  }
  start[n] = packed;
  lits.resize(packed);
  const auto size_of = [&](std::size_t i) { return start[i + 1] - start[i]; };

  // C101 duplicates + C102 tautologies. Clause indices sorted by
  // canonical form, ties by index, so each group of equal clauses starts
  // with its first occurrence; every later member names that one's line.
  for (std::size_t i = 0; i < n; ++i)
    if (tautology[i])
      add("L2L-C102", Severity::kWarning, clauses[i].line,
          "clause contains a variable and its negation (always satisfied)",
          "delete the clause; it constrains nothing");
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  const auto canon_cmp = [&](std::uint32_t a, std::uint32_t b) {
    if (size_of(a) != size_of(b)) return size_of(a) <=> size_of(b);
    return std::lexicographical_compare_three_way(
        lits.begin() + static_cast<std::ptrdiff_t>(start[a]),
        lits.begin() + static_cast<std::ptrdiff_t>(start[a + 1]),
        lits.begin() + static_cast<std::ptrdiff_t>(start[b]),
        lits.begin() + static_cast<std::ptrdiff_t>(start[b + 1]));
  };
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const auto c = canon_cmp(a, b);
    return c != 0 ? c < 0 : a < b;
  });
  for (std::size_t g = 0; g < n;) {
    const std::uint32_t head = order[g];
    std::size_t e = g + 1;
    for (; e < n && canon_cmp(head, order[e]) == 0; ++e)
      add("L2L-C101", Severity::kWarning, clauses[order[e]].line,
          "clause duplicates the clause at line " +
              std::to_string(clauses[head].line) + " (modulo literal order)",
          "delete the duplicate");
    g = e;
  }

  // Dense ids for the variables present, without hashing: the
  // (variable, position) pairs put in variable order by an LSD radix
  // sort -- one stable counting pass per byte of the largest variable,
  // counts on the stack -- so each variable is one run and ids ascend
  // with the variables. That is O(P) whatever variables the upload names
  // (a table keyed on them could be steered into long probe chains).
  // Each literal becomes a code 2 * id + (negative): the index of its
  // occurrence list.
  std::vector<std::uint64_t> by_var(packed), spare(packed);
  std::uint64_t max_var = 0;
  for (std::size_t k = 0; k < packed; ++k) {
    by_var[k] = static_cast<std::uint64_t>(std::abs(lits[k])) << 32 | k;
    max_var = std::max(max_var, by_var[k] >> 32);
  }
  for (int digit = 0; (max_var >> digit) != 0; digit += 8) {
    const auto byte = [&](std::uint64_t e) {
      return (e >> (32 + digit)) & 0xff;
    };
    std::array<std::uint32_t, 257> count{};
    for (const std::uint64_t e : by_var) ++count[byte(e) + 1];
    std::partial_sum(count.begin(), count.end(), count.begin());
    for (const std::uint64_t e : by_var) spare[count[byte(e)]++] = e;
    by_var.swap(spare);
  }
  std::vector<int> var_of;  ///< dense id -> DIMACS variable
  std::vector<std::uint32_t> code(packed);
  for (const std::uint64_t entry : by_var) {
    const auto var = static_cast<int>(entry >> 32);
    const auto k = static_cast<std::uint32_t>(entry);
    if (var_of.empty() || var_of.back() != var) var_of.push_back(var);
    code[k] = 2 * static_cast<std::uint32_t>(var_of.size() - 1) +
              (lits[k] < 0 ? 1u : 0u);
  }
  std::vector<int> first_line(var_of.size(), 0);  ///< first clause's line
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = start[i]; k < start[i + 1]; ++k) {
      int& first = first_line[code[k] / 2];
      if (first == 0) first = clauses[i].line;
    }
  const std::size_t num_codes = 2 * var_of.size();

  // C103 pure literals: variables occurring in one phase only. The note
  // severity is deliberate -- ordinary instances have pure literals and
  // must stay gate-clean; the note is a teaching aid, not a defect.
  // CSR occurrence lists come first: a variable is pure when one of its
  // two lists is empty.
  std::vector<std::uint32_t> occ_start(num_codes + 1, 0);
  for (const std::uint32_t c : code) ++occ_start[c + 1];
  for (std::size_t c = 0; c < num_codes; ++c)
    occ_start[c + 1] += occ_start[c];
  std::vector<std::uint32_t> occ(packed);  // clause indices, ascending
  {
    std::vector<std::uint32_t> fill(occ_start.begin(), occ_start.end() - 1);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t k = start[i]; k < start[i + 1]; ++k)
        occ[fill[code[k]]++] = static_cast<std::uint32_t>(i);
  }
  const auto occ_empty = [&](std::size_t c) {
    return occ_start[c] == occ_start[c + 1];
  };
  for (std::size_t v = 0; v < var_of.size(); ++v) {
    const bool pos = !occ_empty(2 * v), neg = !occ_empty(2 * v + 1);
    if (pos != neg)
      add("L2L-C103", Severity::kNote, first_line[v],
          "variable " + std::to_string(var_of[v]) + " occurs only " +
              (pos ? "positively" : "negatively") + " (pure literal)",
          "assigning it satisfies every clause it touches");
  }

  // C104 unit propagation: occurrence-list BCP in clause-index order.
  // Tautological clauses are pre-satisfied; the first falsified clause
  // (or conflicting unit) is the finding, then we stop -- one exact
  // contradiction beats a cascade of consequences.
  std::vector<char> assigned(var_of.size(), 0);
  std::vector<char> satisfied(tautology);
  std::vector<std::size_t> unassigned(n, 0);
  std::vector<std::uint32_t> queue;  // clause indices that became unit (FIFO)
  int conflict_line = 0;
  for (std::size_t i = 0; i < n; ++i) {
    unassigned[i] = size_of(i);
    if (satisfied[i]) continue;
    if (unassigned[i] == 0) {
      conflict_line = clauses[i].line;  // the explicit empty clause
      break;
    }
    if (unassigned[i] == 1) queue.push_back(static_cast<std::uint32_t>(i));
  }
  const auto occurrences = [&](std::uint32_t c) {
    return std::pair(occ.begin() + occ_start[c],
                     occ.begin() + occ_start[c + 1]);
  };
  for (std::size_t head = 0; conflict_line == 0 && head < queue.size();) {
    const std::uint32_t ci = queue[head++];
    if (satisfied[ci]) continue;
    // The forced literal: the last literal whose variable is unassigned.
    std::uint32_t forced = 0;
    bool found = false;
    for (std::size_t k = start[ci]; k < start[ci + 1]; ++k)
      if (!assigned[code[k] / 2]) {
        forced = code[k];
        found = true;
      }
    if (!found) continue;  // raced with itself; already handled
    assigned[forced / 2] = 1;
    for (auto [it, e] = occurrences(forced); it != e; ++it) satisfied[*it] = 1;
    for (auto [it, e] = occurrences(forced ^ 1u); it != e; ++it) {
      const std::uint32_t h = *it;
      if (satisfied[h]) continue;
      if (--unassigned[h] == 0) {
        conflict_line = clauses[h].line;
        break;
      }
      if (unassigned[h] == 1) queue.push_back(h);
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
