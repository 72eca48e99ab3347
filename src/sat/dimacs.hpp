#pragma once
// DIMACS CNF reader/writer -- the interchange format the MOOC's miniSAT
// portal consumed ("Input: Text file / Output: Webpage", Fig. 4).

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sat/types.hpp"
#include "util/strings.hpp"

namespace l2l::sat {

struct CnfFormula {
  int num_vars = 0;
  std::vector<std::vector<Lit>> clauses;
};

/// Header cap: the header sizes solver allocations up front, so a hostile
/// "p cnf 2000000000 1" is a defect, not an OOM later.
inline constexpr int kMaxDimacsVars = 1 << 24;

/// One clause as written: its DIMACS literals in file order are
/// ParsedDimacs::lits[begin, end), and `line` is the line of its first
/// accepted token (a literal, or the 0 of an empty clause).
struct DimacsClause {
  std::size_t begin = 0, end = 0;
  int line = 0;
};

/// Why a text is not a DIMACS formula, worded for the learner. `line` is
/// 1-based; 0 means the file as a whole.
struct DimacsDefect {
  enum class Kind { kHeader, kLiteral, kClauseCount };
  Kind kind;
  int line = 0;
  std::string message;
  std::string hint;  ///< a fix-it suggestion, or empty
};

/// The one located DIMACS parse, shared by the solver front end, the
/// L2L-Cxxx lint pack and the C1xx sema pack. Lenient: it never throws,
/// records defects in file order and keeps going. Clauses hold every
/// accepted literal; an unterminated tail is kept as the last clause.
/// Only the first util::kMaxDefects defects are kept, so pasted junk
/// costs no more than its bytes.
struct ParsedDimacs {
  int num_vars = -1;  ///< -1 = no usable problem line
  std::vector<int> lits;  ///< every clause's literals, back to back
  std::vector<DimacsClause> clauses;
  std::vector<DimacsDefect> defects;

  bool clean() const { return defects.empty(); }
  std::span<int> lits_of(const DimacsClause& c) {
    return {lits.data() + c.begin, c.end - c.begin};
  }
  std::span<const int> lits_of(const DimacsClause& c) const {
    return {lits.data() + c.begin, c.end - c.begin};
  }
};

ParsedDimacs parse_dimacs_lenient(std::string_view text);

/// A defect as one line: "DIMACS line N: message" ("DIMACS: message" for
/// the file as a whole). The text parse_dimacs throws and solve_sat reports.
std::string defect_text(const DimacsDefect& d);

/// Whether a clause whose literals are sorted ascending holds some
/// variable in both signs (a tautology). One walk: the negative literals
/// from the front, the positive ones from the back, both in falling
/// magnitude, so the pair is found wherever it sits in the clause.
bool has_complementary_pair(std::span<const int> sorted);

/// Parse DIMACS text ("p cnf V C" header, clauses of nonzero ints ending in
/// 0, 'c' comment lines): the lenient parse when it found no defect.
/// Throws std::invalid_argument naming the first defect otherwise.
CnfFormula parse_dimacs(const std::string& text);

/// Serialize to DIMACS text.
std::string write_dimacs(const CnfFormula& f);

class Solver;

/// Load a clean lenient parse into a solver: its flat literals go to
/// add_clause clause by clause, with no per-clause container in between.
/// Returns false if the formula is detected unsatisfiable already while
/// adding clauses. Throws std::invalid_argument, as parse_dimacs does,
/// when the parse has a defect.
bool load_into_solver(const ParsedDimacs& f, Solver& solver);

/// MiniSat-style result text: "SATISFIABLE" + "v ..." model line, or
/// "UNSATISFIABLE" / "INDETERMINATE".
std::string result_text(Solver& solver, LBool result);

}  // namespace l2l::sat
