#include "sat/dimacs.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <stdexcept>

#include "sat/solver.hpp"
#include "util/strings.hpp"

namespace l2l::sat {

ParsedDimacs parse_dimacs_lenient(std::string_view text) {
  ParsedDimacs out;
  using Kind = DimacsDefect::Kind;
  auto defect = [&](Kind kind, int line, std::string msg,
                    std::string hint = {}) {
    if (out.defects.size() < util::kMaxDefects)
      out.defects.push_back({kind, line, std::move(msg), std::move(hint)});
  };
  // A literal and its separator take at least two bytes, so this bounds
  // the literal count by the input size, never by the header.
  out.lits.reserve(text.size() / 2 + 1);
  bool have_header = false;
  bool open = false;  // the last clause still waits for its 0
  int declared_clauses = -1, terminated = 0, last_content_line = 0;
  util::for_each_line(text, [&](int lineno, std::string_view raw) {
    const auto t = util::trim(raw);
    if (t.empty() || t[0] == 'c') return true;
    last_content_line = lineno;
    if (t[0] == 'p') {
      if (have_header) {
        defect(Kind::kHeader, lineno, "second problem line");
        return true;
      }
      have_header = true;  // a broken header still ends the preamble
      const auto tok = util::split_views(t);
      if (tok.size() != 4 || tok[1] != "cnf") {
        defect(Kind::kHeader, lineno,
               "malformed problem line '" + util::excerpt(t) + "'",
               "write 'p cnf <vars> <clauses>'");
        return true;
      }
      const auto nv = util::parse_int(tok[2]);
      const auto nc = util::parse_int(tok[3]);
      if (!nv || !nc || *nv < 0 || *nc < 0) {
        defect(Kind::kHeader, lineno,
               "bad counts in problem line '" + util::excerpt(t) + "'");
      } else if (*nv > kMaxDimacsVars) {
        defect(Kind::kHeader, lineno,
               util::format("variable count %d above the %d cap", *nv,
                            kMaxDimacsVars),
               "the grading service rejects formulas this large");
      } else {
        out.num_vars = *nv;
        declared_clauses = *nc;
        // Every clause costs at least its "0" token, so the input size
        // bounds the real count; the reserve cap keeps a hostile header
        // from over-allocating.
        out.clauses.reserve(static_cast<std::size_t>(std::min(*nc, 1 << 20)));
      }
      return true;
    }
    if (!have_header) {
      defect(Kind::kHeader, lineno, "clause before the problem line",
             "the 'p cnf ...' header must come first");
      have_header = true;  // report once, keep scanning
    }
    util::TokenWalker walk(t);
    for (auto tok = walk.next(); !tok.empty(); tok = walk.next()) {
      const auto lit = util::parse_int(tok);
      if (!lit) {
        defect(Kind::kLiteral, lineno,
               "bad literal '" + util::excerpt(tok) + "'");
        continue;
      }
      const long long var = *lit > 0 ? *lit : -static_cast<long long>(*lit);
      if (*lit != 0 && out.num_vars >= 0 && var > out.num_vars) {
        defect(Kind::kLiteral, lineno,
               util::format("literal %d outside the declared %d variable(s)",
                            *lit, out.num_vars));
        continue;
      }
      if (!open)
        out.clauses.push_back({out.lits.size(), out.lits.size(), lineno});
      open = *lit != 0;
      if (open) {
        out.lits.push_back(*lit);
        out.clauses.back().end = out.lits.size();
      } else {
        ++terminated;
      }
    }
    return true;
  });
  if (open)
    defect(Kind::kClauseCount, out.clauses.back().line,
           "last clause is missing its terminating 0");
  if (!have_header)
    defect(Kind::kHeader, 0, "missing problem line",
           "start the file with 'p cnf <vars> <clauses>'");
  if (declared_clauses >= 0 && declared_clauses != terminated)
    defect(Kind::kClauseCount, last_content_line,
           util::format("header declares %d clause(s) but the body has %d",
                        declared_clauses, terminated),
           "fix the 'p cnf' clause count");
  return out;
}

std::string defect_text(const DimacsDefect& d) {
  return (d.line > 0 ? util::format("DIMACS line %d: ", d.line) : "DIMACS: ") +
         d.message;
}

CnfFormula parse_dimacs(const std::string& text) {
  const ParsedDimacs parsed = parse_dimacs_lenient(text);
  if (!parsed.clean())
    throw std::invalid_argument(defect_text(parsed.defects.front()));
  CnfFormula f;
  f.num_vars = parsed.num_vars;
  f.clauses.reserve(parsed.clauses.size());
  for (const auto& clause : parsed.clauses) {
    auto& lits = f.clauses.emplace_back();
    lits.reserve(clause.end - clause.begin);
    for (const int v : parsed.lits_of(clause))
      lits.push_back(Lit(std::abs(v) - 1, v < 0));
  }
  return f;
}

bool has_complementary_pair(std::span<const int> sorted) {
  if (sorted.empty()) return false;
  std::size_t lo = 0, hi = sorted.size() - 1;
  while (lo < hi && sorted[lo] < 0 && sorted[hi] > 0) {
    const long long neg = -static_cast<long long>(sorted[lo]);
    if (neg == sorted[hi]) return true;
    if (neg > sorted[hi]) {
      ++lo;
    } else {
      --hi;
    }
  }
  return false;
}

std::string write_dimacs(const CnfFormula& f) {
  std::string out = util::format("p cnf %d %d\n", f.num_vars,
                                 static_cast<int>(f.clauses.size()));
  for (const auto& clause : f.clauses) {
    for (const Lit p : clause)
      out += util::format("%d ", (p.var() + 1) * (p.sign() ? -1 : 1));
    out += "0\n";
  }
  return out;
}

bool load_into_solver(const ParsedDimacs& f, Solver& solver) {
  if (!f.clean()) throw std::invalid_argument(defect_text(f.defects.front()));
  solver.reserve_vars(f.num_vars);
  // One arena reservation up front: clause ingestion never reallocates
  // the clause store.
  solver.reserve_clauses(static_cast<std::int64_t>(f.lits.size()),
                         static_cast<std::int64_t>(f.clauses.size()));
  std::vector<Lit> lits(f.lits.size());
  std::transform(f.lits.begin(), f.lits.end(), lits.begin(),
                 [](int v) { return Lit(std::abs(v) - 1, v < 0); });
  for (const auto& clause : f.clauses)
    if (!solver.add_clause(std::span<const Lit>(lits).subspan(
            clause.begin, clause.end - clause.begin)))
      return false;
  return true;
}

std::string result_text(Solver& solver, LBool result) {
  if (result == LBool::kFalse) return "UNSATISFIABLE\n";
  if (result == LBool::kUndef) return "INDETERMINATE\n";
  std::string out = "SATISFIABLE\nv";
  char buf[16];
  for (Var v = 0; v < solver.num_vars(); ++v) {
    const int lit = solver.model_value(v) ? v + 1 : -(v + 1);
    out += ' ';
    out.append(buf, std::to_chars(buf, buf + sizeof buf, lit).ptr);
  }
  out += " 0\n";
  return out;
}

}  // namespace l2l::sat
