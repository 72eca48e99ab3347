// Differential oracle for the flat checkers. sema::analyze_cnf,
// lint::lint_cnf, lint::lint_placement, place::is_legal, the route
// solution's cell scanner, lint_route_solution's known-net check and the
// routing-problem readers (lint_route_problem, route::parse_problem) are
// checked against test-local reference versions written the plain way --
// node-based std::map/std::set, a tokenize-then-parse_int cell reader, a
// scan of the problem's nets and std::getline pull readers -- on seeded
// generated uploads and on the parse fuzzer's CNF and placement mutants.
// Every finding must match byte for byte: rule, severity, line, column,
// message and hint.
//
// A failure prints the upload; minimize it by hand and add it to
// tests/data/hostile/ with a README row.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <map>
#include <new>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/wire.hpp"
#include "gen/routing_gen.hpp"
#include "grader/route_grader.hpp"
#include "lint/lint.hpp"
#include "parse_corpus.hpp"
#include "place/legalize.hpp"
#include "place/placement_text.hpp"
#include "route/solution.hpp"
#include "sat/dimacs.hpp"
#include "sema/sema.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

// Every byte this binary asks of the unaligned operator new forms, so a
// test can bound what a checker allocates by the size of its upload. All
// of them, nothrow and array forms included, allocate with malloc and
// every matching delete frees, so no pair mixes with a sanitizer's own.
// The deletes stay out of line: inlined into a container, GCC would see
// free() on a pointer from operator new and warn.
namespace {
std::atomic<std::size_t> g_new_bytes{0};

void* counted_malloc(std::size_t n) noexcept {
  g_new_bytes.fetch_add(n, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace l2l {
namespace {

using lint::Finding;
using util::Severity;

// ---- reference checkers -------------------------------------------------

/// sema::analyze_cnf over std::map occurrence lists and assignments.
std::vector<Finding> reference_analyze_cnf(const std::string& text) {
  std::vector<Finding> out;
  const sat::ParsedDimacs parsed = sat::parse_dimacs_lenient(text);
  if (!parsed.clean()) return out;
  struct Clause {
    std::vector<int> canon;
    int line = 0;
    bool tautology = false;
  };
  std::vector<Clause> clauses;
  for (const auto& pc : parsed.clauses) {
    Clause c;
    c.line = pc.line;
    const auto lits = parsed.lits_of(pc);
    c.canon.assign(lits.begin(), lits.end());
    std::sort(c.canon.begin(), c.canon.end());
    c.canon.erase(std::unique(c.canon.begin(), c.canon.end()), c.canon.end());
    const std::set<int> present(c.canon.begin(), c.canon.end());
    for (const int lit : c.canon)
      if (present.count(-lit)) c.tautology = true;
    clauses.push_back(std::move(c));
  }
  auto add = [&](const char* rule, Severity sev, int line, std::string msg,
                 std::string hint) {
    out.push_back(
        {rule, sev, line, line > 0 ? 1 : 0, std::move(msg), std::move(hint)});
  };
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
  struct Phases {
    bool pos = false, neg = false;
    int line = 0;
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
  std::map<int, std::vector<int>> occ;
  for (std::size_t i = 0; i < clauses.size(); ++i)
    for (const int lit : clauses[i].canon)
      occ[lit].push_back(static_cast<int>(i));
  std::map<int, bool> assign;
  std::vector<bool> satisfied(clauses.size(), false);
  std::vector<int> unassigned(clauses.size(), 0);
  std::vector<int> queue;
  int conflict_line = 0;
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    if (clauses[i].tautology) satisfied[i] = true;
    unassigned[i] = static_cast<int>(clauses[i].canon.size());
    if (satisfied[i]) continue;
    if (unassigned[i] == 0) {
      conflict_line = clauses[i].line;
      break;
    }
    if (unassigned[i] == 1) queue.push_back(static_cast<int>(i));
  }
  std::size_t head = 0;
  while (conflict_line == 0 && head < queue.size()) {
    const auto ci = static_cast<std::size_t>(queue[head++]);
    if (satisfied[ci]) continue;
    int forced = 0;
    for (const int lit : clauses[ci].canon)
      if (assign.find(std::abs(lit)) == assign.end()) forced = lit;
    if (forced == 0) continue;
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

/// lint::lint_cnf over a std::map of sorted clauses and a std::set of
/// used variables.
std::vector<Finding> reference_lint_cnf(const std::string& text) {
  std::vector<Finding> out;
  auto emit = [&](const char* rule, Severity sev, int line, std::string msg,
                  std::string hint = {}) {
    out.push_back(
        {rule, sev, line, line > 0 ? 1 : 0, std::move(msg), std::move(hint)});
  };
  const sat::ParsedDimacs parsed = sat::parse_dimacs_lenient(text);
  for (const auto& d : parsed.defects) {
    using Kind = sat::DimacsDefect::Kind;
    emit(d.kind == Kind::kHeader    ? "L2L-C001"
         : d.kind == Kind::kLiteral ? "L2L-C002"
                                    : "L2L-C003",
         Severity::kError, d.line, d.message, d.hint);
  }
  constexpr int kMaxTrackedVars = 1 << 20;
  std::map<std::vector<int>, int> seen;  // sorted clause -> first line
  std::set<int> used_vars;
  for (const auto& clause : parsed.clauses) {
    const auto lits = parsed.lits_of(clause);
    std::vector<int> key(lits.begin(), lits.end());
    if (key.empty()) {
      emit("L2L-C004", Severity::kWarning, clause.line,
           "empty clause: the formula is trivially unsatisfiable");
      continue;
    }
    std::sort(key.begin(), key.end());
    for (const int lit : key) {
      const long long var = lit > 0 ? lit : -static_cast<long long>(lit);
      if (var <= kMaxTrackedVars) used_vars.insert(static_cast<int>(var));
    }
    if (std::adjacent_find(key.begin(), key.end()) != key.end())
      emit("L2L-C007", Severity::kWarning, clause.line,
           "duplicate literal inside the clause");
    if (sat::has_complementary_pair(key))
      emit("L2L-C006", Severity::kWarning, clause.line,
           "tautological clause (contains v and -v)",
           "the clause is always true; drop it");
    const auto [it, fresh] = seen.try_emplace(key, clause.line);
    if (!fresh)
      emit("L2L-C005", Severity::kWarning, clause.line,
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
      emit("L2L-C008", Severity::kWarning, 0,
           util::format("%d declared variable(s) never appear (first: %d)",
                        unused, first_unused),
           "shrink the variable count or reference them");
  }
  lint::sort_findings(out);
  return out;
}

/// lint::lint_placement over std::map tables.
std::vector<Finding> reference_lint_placement(const std::string& text,
                                              const lint::PlacementSpec& spec) {
  const auto parsed = place::parse_placement_lenient(text, spec.num_cells);
  std::vector<Finding> out;
  auto emit = [&](const char* rule, Severity sev, int line, std::string msg,
                  std::string hint = {}) {
    out.push_back({rule, sev, line, line > 0 ? 1 : 0, std::move(msg),
                   std::move(hint)});
  };
  using Kind = place::PlacementDefect::Kind;
  for (const auto& d : parsed.defects) {
    if (d.kind == Kind::kBadLine)
      emit("L2L-L001", Severity::kError, d.line,
           "bad line '" + util::excerpt(d.text) + "'",
           "write 'cell <id> <col> <row>'");
    else if (d.kind == Kind::kBadNumber)
      emit("L2L-L001", Severity::kError, d.line,
           "bad number in '" + util::excerpt(d.text) + "'");
    else if (d.kind == Kind::kCellOutOfRange)
      emit("L2L-L003", Severity::kError, d.line,
           spec.num_cells >= 0
               ? util::format("cell index %d out of range [0, %d)", d.cell,
                              spec.num_cells)
               : util::format("cell index %d is negative", d.cell));
  }
  std::map<int, int> cell_line;
  std::map<std::pair<int, int>, int> site_owner;
  for (const auto& l : parsed.lines) {
    const auto [it, fresh] = cell_line.try_emplace(l.cell, l.line);
    if (!fresh) {
      emit("L2L-L002", Severity::kError, l.line,
           util::format("cell %d assigned twice (first on line %d)", l.cell,
                        it->second),
           "keep one line per cell");
      continue;
    }
    const bool col_bad = l.col < 0 || (spec.cols >= 0 && l.col >= spec.cols);
    const bool row_bad = l.row < 0 || (spec.rows >= 0 && l.row >= spec.rows);
    if (col_bad || row_bad) {
      emit("L2L-L004", Severity::kError, l.line,
           spec.cols >= 0 && spec.rows >= 0
               ? util::format("site (%d, %d) outside the %d x %d region",
                              l.col, l.row, spec.cols, spec.rows)
               : util::format("negative site coordinate (%d, %d)", l.col,
                              l.row));
      continue;
    }
    const auto [owner, site_fresh] =
        site_owner.try_emplace({l.col, l.row}, l.cell);
    if (!site_fresh)
      emit("L2L-L005", Severity::kError, l.line,
           util::format("cell %d overlaps cell %d at site (%d, %d)", l.cell,
                        owner->second, l.col, l.row),
           "every cell needs its own site");
  }
  if (spec.num_cells >= 0) {
    int missing = 0, first_missing = -1;
    for (int c = 0; c < spec.num_cells; ++c)
      if (!cell_line.count(c)) {
        ++missing;
        if (first_missing < 0) first_missing = c;
      }
    if (missing > 0)
      emit("L2L-L006", Severity::kError, 0,
           util::format("%d cell(s) unassigned (first: cell %d)", missing,
                        first_missing),
           "every cell needs exactly one 'cell' line");
  }
  lint::sort_findings(out);
  return out;
}

/// place::is_legal over a std::set of sites.
bool reference_is_legal(const place::GridPlacement& gp,
                        const place::Grid& grid) {
  std::set<std::pair<int, int>> seen;
  for (std::size_t c = 0; c < gp.col.size(); ++c) {
    if (gp.col[c] < 0 || gp.col[c] >= grid.sites_per_row) return false;
    if (gp.row[c] < 0 || gp.row[c] >= grid.rows) return false;
    if (!seen.insert({gp.col[c], gp.row[c]}).second) return false;
  }
  return true;
}

/// A "(x y l)" line the plain way: split on '(', ')', ' ' and '\t', then
/// util::parse_int on each of exactly three tokens.
std::optional<gen::GridPoint> reference_scan_cell(std::string_view line) {
  const auto tok = util::split(util::trim(line), "() \t");
  if (tok.size() != 3) return std::nullopt;
  const auto x = util::parse_int(tok[0]);
  const auto y = util::parse_int(tok[1]);
  const auto l = util::parse_int(tok[2]);
  if (!x || !y || !l) return std::nullopt;
  return gen::GridPoint{*x, *y, *l};
}

std::string render(const std::vector<Finding>& findings) {
  std::string out;
  for (const auto& f : findings) out += f.to_string() + "\n";
  return out;
}

/// Tallies each rule over a run, so a generator that stops reaching a
/// rule fails instead of passing vacuously.
void tally(std::map<std::string, int>& counts,
           const std::vector<Finding>& findings) {
  for (const auto& f : findings) ++counts[f.rule];
}

// ---- generated CNF uploads ----------------------------------------------

/// A seeded DIMACS upload mixing every case the C-pack distinguishes:
/// duplicates in permuted literal order (some three or more times),
/// tautologies, explicit empty clauses, unit chains that end in a
/// conflict, repeated literals, and -- one upload in eight -- variable
/// ids at the top of the kMaxDimacsVars range with a tiny body. One in
/// sixteen declares a wrong clause count, so the no-finding path of a
/// defective parse is compared too.
std::string random_cnf(util::Rng& rng) {
  const bool top_ids = rng.next_below(8) == 0;
  const int num_vars = top_ids ? sat::kMaxDimacsVars -
                                     static_cast<int>(rng.next_below(3))
                               : 1 + static_cast<int>(rng.next_below(10));
  const auto var = [&]() {
    const auto span = static_cast<std::uint64_t>(std::min(num_vars, 4));
    return top_ids ? num_vars - static_cast<int>(rng.next_below(span))
                   : 1 + static_cast<int>(rng.next_below(
                             static_cast<std::uint64_t>(num_vars)));
  };
  const auto lit = [&]() { return rng.next_bool() ? var() : -var(); };
  std::vector<std::vector<int>> clauses;
  const auto base = 1 + rng.next_below(top_ids ? 3 : 12);
  for (std::uint64_t k = 0; k < base; ++k) {
    std::vector<int> c(rng.next_below(5));
    for (auto& l : c) l = lit();
    clauses.push_back(std::move(c));
  }
  const auto extras = rng.next_below(6);
  for (std::uint64_t e = 0; e < extras; ++e) {
    switch (rng.next_below(5)) {
      case 0: {  // duplicates, literal order permuted
        const auto copies = 1 + rng.next_below(3);
        const auto src = clauses[rng.next_below(clauses.size())];
        for (std::uint64_t k = 0; k < copies; ++k) {
          auto c = src;
          rng.shuffle(c);
          clauses.push_back(std::move(c));
        }
        break;
      }
      case 1: {  // a tautology, the pair anywhere in the clause
        const int v = var();
        std::vector<int> c = {v, -v};
        for (auto k = rng.next_below(3); k > 0; --k) c.push_back(lit());
        rng.shuffle(c);
        clauses.push_back(std::move(c));
        break;
      }
      case 2:  // an explicit empty clause
        clauses.push_back({});
        break;
      case 3: {  // a unit chain v1, v1 -> v2, ..., and a closing -vk
        int prev = lit();
        clauses.push_back({prev});
        for (auto k = rng.next_below(4); k > 0; --k) {
          const int next = lit();
          clauses.push_back({-prev, next});
          prev = next;
        }
        clauses.push_back({-prev});
        break;
      }
      default: {  // a clause with a repeated literal
        const int l = lit();
        clauses.push_back({l, lit(), l});
        break;
      }
    }
  }
  rng.shuffle(clauses);
  int declared = static_cast<int>(clauses.size());
  if (rng.next_below(16) == 0) declared += 1;
  std::string text;
  if (rng.next_below(4) == 0) text += "c generated\n";
  text += util::format("p cnf %d %d\n", num_vars, declared);
  static constexpr const char* kSeparators[] = {" ", "  ", "\t"};
  for (std::size_t i = 0; i < clauses.size(); ++i) {
    for (const int l : clauses[i])
      text += std::to_string(l) + kSeparators[rng.next_below(3)];
    text += "0";
    // Sometimes two clauses share a line, so duplicates anchor to one.
    text += rng.next_below(5) == 0 ? " " : "\n";
    if (rng.next_below(10) == 0) text += "c between\n\n";
  }
  return text;
}

TEST(CheckerOracle, AnalyzeCnfMatchesTheMapReference) {
  util::Rng rng(0xc0ffee);
  std::map<std::string, int> seen;
  int top_id_uploads = 0;
  for (int round = 0; round < 600; ++round) {
    const std::string text = random_cnf(rng);
    const auto got = sema::analyze_cnf(text);
    ASSERT_EQ(render(got), render(reference_analyze_cnf(text)))
        << "upload " << round << ":\n" << text;
    tally(seen, got);
    if (text.find("p cnf 1677721") != std::string::npos) ++top_id_uploads;
  }
  for (const char* rule : {"L2L-C101", "L2L-C102", "L2L-C103", "L2L-C104"})
    EXPECT_GE(seen[rule], 20) << rule;
  EXPECT_GE(top_id_uploads, 40);
}

TEST(CheckerOracle, LintCnfMatchesTheMapReference) {
  util::Rng rng(0x11c7);
  std::map<std::string, int> seen;
  for (int round = 0; round < 600; ++round) {
    const std::string text = random_cnf(rng);
    const auto got = lint::lint_cnf(text);
    ASSERT_EQ(render(got), render(reference_lint_cnf(text)))
        << "upload " << round << ":\n" << text;
    tally(seen, got);
  }
  for (const char* rule :
       {"L2L-C004", "L2L-C005", "L2L-C006", "L2L-C007", "L2L-C008"})
    EXPECT_GE(seen[rule], 20) << rule;
}

// ---- generated placement uploads ----------------------------------------

/// One coordinate: usually inside [0, bound), else -1 or the bound itself.
int coordinate(util::Rng& rng, int bound) {
  switch (rng.next_below(8)) {
    case 0: return -1;
    case 1: return bound;
    default: return static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(bound)));
  }
}

/// A spec-less id or coordinate: small, near INT_MAX, or anywhere.
int wide_int(util::Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: return INT_MAX;
    case 1: return INT_MAX - static_cast<int>(rng.next_below(3));
    case 2: return static_cast<int>(rng.next_below(4));
    default: return static_cast<int>(rng.next_below(INT_MAX));
  }
}

struct PlacementUpload {
  std::string text;
  lint::PlacementSpec spec;
};

/// A seeded placement upload: with a spec (three in four) it carries
/// repeats, overlaps on a small grid, sites at -1 and at the bound,
/// out-of-range and negative ids, missing cells and malformed lines;
/// without one, ids and coordinates run up to INT_MAX, repeats included.
PlacementUpload random_placement(util::Rng& rng) {
  PlacementUpload up;
  std::vector<std::string> lines;
  if (rng.next_below(4) != 0) {
    up.spec.num_cells = 1 + static_cast<int>(rng.next_below(24));
    up.spec.cols = 1 + static_cast<int>(rng.next_below(7));
    up.spec.rows = 1 + static_cast<int>(rng.next_below(7));
    for (int c = 0; c < up.spec.num_cells; ++c) {
      if (rng.next_below(12) == 0) continue;  // missing
      lines.push_back(util::format("cell %d %d %d", c,
                                   coordinate(rng, up.spec.cols),
                                   coordinate(rng, up.spec.rows)));
    }
    for (auto k = rng.next_below(4); k > 0; --k) {
      const int c = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(up.spec.num_cells)));
      switch (rng.next_below(4)) {
        case 0:  // a repeat, anywhere
          lines.push_back(util::format("cell %d %d %d", c,
                                       coordinate(rng, up.spec.cols),
                                       coordinate(rng, up.spec.rows)));
          break;
        case 1:  // an id past the cell count, or negative
          lines.push_back(util::format(
              "cell %d 0 0", rng.next_bool() ? up.spec.num_cells + c : -1 - c));
          break;
        case 2:
          lines.push_back(rng.next_bool() ? util::format("cell %d 1", c)
                                          : util::format("cell %d 1x 0", c));
          break;
        default:
          lines.push_back("# moved");
          break;
      }
    }
  } else {
    const auto count = 1 + rng.next_below(8);
    for (std::uint64_t k = 0; k < count; ++k) {
      const std::string line = util::format(
          "cell %d %d %d", wide_int(rng), wide_int(rng), wide_int(rng));
      lines.push_back(line);
      if (rng.next_below(3) == 0) lines.push_back(line);  // a repeat
    }
    if (rng.next_below(4) == 0)
      lines.push_back(util::format("cell %d 0 0", -1 - wide_int(rng)));
  }
  rng.shuffle(lines);
  for (const auto& l : lines) up.text += l + "\n";
  return up;
}

TEST(CheckerOracle, LintPlacementAndIsLegalMatchTheMapReferences) {
  util::Rng rng(0x91ace);
  std::map<std::string, int> seen;
  int spec_less = 0;
  for (int round = 0; round < 600; ++round) {
    const PlacementUpload up = random_placement(rng);
    const auto got = lint::lint_placement(up.text, up.spec);
    ASSERT_EQ(render(got), render(reference_lint_placement(up.text, up.spec)))
        << "upload " << round << ":\n" << up.text;
    tally(seen, got);
    if (up.spec.num_cells < 0) {
      ++spec_less;
      continue;
    }
    const place::Grid grid{up.spec.rows, up.spec.cols, 1.0, 1.0};
    const auto gp =
        place::parse_placement_lenient(up.text, up.spec.num_cells).placement;
    EXPECT_EQ(place::is_legal(gp, grid), reference_is_legal(gp, grid))
        << "upload " << round << ":\n" << up.text;
  }
  for (const char* rule :
       {"L2L-L001", "L2L-L002", "L2L-L003", "L2L-L004", "L2L-L005", "L2L-L006"})
    EXPECT_GE(seen[rule], 20) << rule;
  EXPECT_GE(spec_less, 100);
}

// ---- route solution net ids ---------------------------------------------

// lint_route_solution's S005 ("net id is not part of the problem") against
// the scan it replaced: each block's id compared with every problem net's.
// The uploads draw their block ids from the problem's ids, their
// neighbours, repeats and the int extremes, on problems whose ids are
// shuffled, sparse or repeated.
TEST(CheckerOracle, RouteKnownNetMatchesTheScan) {
  util::Rng rng(0x5005);
  int unknown = 0, known = 0;
  for (int round = 0; round < 300; ++round) {
    gen::RoutingProblem problem;
    problem.width = problem.height = 8;
    problem.num_layers = 2;
    problem.blocked.assign(2, std::vector<bool>(64, false));
    for (auto k = rng.next_below(7); k > 0; --k) {
      gen::RoutingNet net;
      net.id = rng.next_below(5) == 0 ? static_cast<int>(rng.next_in(-3, 3))
                                      : static_cast<int>(rng.next_below(40));
      problem.nets.push_back(net);
    }
    std::string text;
    const auto blocks = rng.next_below(9);
    text += std::to_string(blocks) + "\n";
    std::vector<int> block_ids;
    for (std::uint64_t b = 0; b < blocks; ++b) {
      int id;
      switch (rng.next_below(4)) {
        case 0:
          id = problem.nets.empty()
                   ? 0
                   : problem.nets[rng.next_below(problem.nets.size())].id +
                         static_cast<int>(rng.next_in(-1, 1));
          break;
        case 1: id = rng.next_bool() ? INT_MAX : INT_MIN + 1; break;
        default: id = static_cast<int>(rng.next_below(40));
      }
      block_ids.push_back(id);
      text += "net " + std::to_string(id) + "\n!\n";
    }
    std::vector<Finding> want;
    for (const auto& net : route::parse_solution_lenient(text).solution.nets) {
      bool found = false;
      for (const auto& pnet : problem.nets) found = found || pnet.id == net.net_id;
      if (!found)
        want.push_back({"L2L-S005", Severity::kWarning, 0, 0,
                        util::format("net id %d is not part of the problem", net.net_id),
                        ""});
      found ? ++known : ++unknown;
    }
    lint::sort_findings(want);
    std::vector<Finding> got;
    for (const auto& f : lint::lint_route_solution(text, &problem))
      if (f.rule == "L2L-S005") got.push_back(f);
    ASSERT_EQ(render(got), render(want)) << "upload " << round << ":\n" << text;
  }
  EXPECT_GT(known, 100);
  EXPECT_GT(unknown, 100);
}

// ---- route cell lines ---------------------------------------------------

TEST(CheckerOracle, CellScanReadsLikeTokenizeThenParseInt) {
  // Cell lines of three number tokens, or two or four. A token is an
  // optional run of the whitespace parse_int trims, an optional sign,
  // digits at and past the int limits, and optional trailing whitespace;
  // separators mix the delimiters; one line in four gets a stray
  // character spliced in.
  static constexpr const char* kSpace[] = {"", "", "", "\r", "\v", "\f"};
  static constexpr const char* kSign[] = {"", "", "", "+", "-", "+-", "-+",
                                          "++"};
  static constexpr const char* kDigits[] = {
      "0", "7", "42", "5", "00012", "2147483647", "2147483648",
      "2147483649", "99999999999", ""};
  static constexpr const char* kSeparator[] = {" ", "\t", "  ", ")(", " ( "};
  static constexpr char kStray[] = "x+-()\t\r 9";
  util::Rng rng(0x5ca11);
  const auto pick = [&](const auto& table) {
    return table[rng.next_below(std::size(table))];
  };
  int accepted = 0, rejected = 0;
  for (int round = 0; round < 4000; ++round) {
    std::string line = "(";
    const auto tokens = rng.next_below(4) != 0 ? 3 : 2 + 2 * rng.next_below(2);
    for (std::uint64_t k = 0; k < tokens; ++k) {
      if (k > 0) line += pick(kSeparator);
      line += std::string(pick(kSpace)) + pick(kSign) + pick(kDigits) +
              pick(kSpace);
    }
    line += ")";
    if (rng.next_below(4) == 0)
      line.insert(1 + rng.next_below(line.size() - 1), 1,
                  kStray[rng.next_below(sizeof(kStray) - 1)]);
    const auto want = reference_scan_cell(line);
    const auto parsed =
        route::parse_solution_lenient("1\nnet 3\n" + line + "\n!\n");
    const auto& nets = parsed.solution.nets;
    if (want) {
      ++accepted;
      ASSERT_EQ(nets.size(), 1u) << "line '" << line << "'";
      ASSERT_EQ(nets[0].cells.size(), 1u) << "line '" << line << "'";
      EXPECT_EQ(nets[0].cells[0], *want) << "line '" << line << "'";
    } else {
      ++rejected;
      EXPECT_TRUE(nets.empty()) << "line '" << line << "'";
    }
  }
  EXPECT_GE(accepted, 200);
  EXPECT_GE(rejected, 200);
}

// ---- routing problems ---------------------------------------------------

/// "(x y l)" -> point; nullopt on any defect.
std::optional<gen::GridPoint> reference_parse_point(const std::string& t) {
  const auto tok = util::split(t, "() \t");
  if (tok.size() != 3) return std::nullopt;
  const auto x = util::parse_int(tok[0]);
  const auto y = util::parse_int(tok[1]);
  const auto l = util::parse_int(tok[2]);
  if (!x || !y || !l) return std::nullopt;
  return gen::GridPoint{*x, *y, *l};
}

/// The R-pack as a scanner of its own: a std::getline pull reader, a
/// std::map of net ids, a std::set of pins per net and a std::map of the
/// first pin on each free grid point.
std::vector<Finding> reference_lint_route_problem(const std::string& text) {
  std::vector<Finding> out;
  auto emit = [&](const char* rule, Severity sev, int line, std::string msg,
                  std::string hint = {}) {
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
  auto done = [&] {
    lint::sort_findings(out);
    return out;
  };

  constexpr int kMaxSide = 1 << 16;
  constexpr int kMaxLayers = 64;
  constexpr long long kMaxCells = 1LL << 26;
  gen::RoutingProblem p;
  bool grid_ok = false;
  const auto grid = next_line();
  if (!grid) {
    emit("L2L-R001", Severity::kError, 0, "empty problem file");
    return out;
  }
  {
    const auto tok = util::split(*grid);
    std::optional<int> w, h, nl;
    if (tok.size() == 4 && tok[0] == "grid") {
      w = util::parse_int(tok[1]);
      h = util::parse_int(tok[2]);
      nl = util::parse_int(tok[3]);
    }
    if (!w || !h || !nl) {
      emit("L2L-R001", Severity::kError, lineno,
           "missing or malformed grid header '" + util::excerpt(*grid) + "'",
           "write 'grid <width> <height> <layers>'");
      return done();
    }
    if (*w < 1 || *h < 1 || *w > kMaxSide || *h > kMaxSide || *nl < 1 ||
        *nl > kMaxLayers ||
        static_cast<long long>(*w) * *h * *nl > kMaxCells) {
      emit("L2L-R002", Severity::kError, lineno,
           util::format("grid %d x %d x %d outside the sane range", *w, *h,
                        *nl),
           util::format("sides <= %d, layers <= %d, cells <= %lld", kMaxSide,
                        kMaxLayers, kMaxCells));
    } else {
      p.width = *w;
      p.height = *h;
      p.num_layers = *nl;
      p.blocked.assign(static_cast<std::size_t>(*nl),
                       std::vector<bool>(static_cast<std::size_t>(*w) *
                                             static_cast<std::size_t>(*h),
                                         false));
      grid_ok = true;
    }
  }
  auto header_count = [&](const char* word) -> std::optional<int> {
    const auto l = next_line();
    const auto tok = l ? util::split(*l) : std::vector<std::string>{};
    std::optional<int> count;
    if (tok.size() == 2 && tok[0] == word) count = util::parse_int(tok[1]);
    if (!count || *count < 0) {
      const bool obstacles = std::string(word) == "obstacles";
      emit("L2L-R001", Severity::kError, l ? lineno : 0,
           util::format("missing or malformed %s header", word),
           obstacles ? "write 'obstacles <count>' after the grid line"
                     : "write 'nets <count>' after the obstacle list");
      return std::nullopt;
    }
    return count;
  };
  const auto obstacles = header_count("obstacles");
  if (!obstacles) return done();
  for (int k = 0; k < *obstacles; ++k) {
    const auto pl = next_line();
    if (!pl) {
      emit("L2L-R001", Severity::kError, lineno,
           util::format("file ends after %d of %d obstacle(s)", k,
                        *obstacles));
      return done();
    }
    const auto g = reference_parse_point(*pl);
    if (!g) {
      emit("L2L-R001", Severity::kError, lineno,
           "bad obstacle point '" + util::excerpt(*pl) + "'",
           "write '(x y layer)'");
      continue;
    }
    if (!grid_ok) continue;
    if (!p.in_bounds(*g)) {
      emit("L2L-R001", Severity::kError, lineno,
           util::format("obstacle (%d %d %d) off-grid", g->x, g->y,
                        g->layer));
      continue;
    }
    p.blocked[static_cast<std::size_t>(g->layer)]
             [static_cast<std::size_t>(g->y) *
                  static_cast<std::size_t>(p.width) +
              static_cast<std::size_t>(g->x)] = true;
  }
  const auto nets = header_count("nets");
  if (!nets) return done();
  std::map<int, int> net_line;
  struct FirstPin {
    int net_index, id, line;
  };
  std::map<gen::GridPoint, FirstPin> first_pin;
  for (int k = 0; k < *nets; ++k) {
    const auto hl = next_line();
    if (!hl) {
      emit("L2L-R001", Severity::kError, lineno,
           util::format("file ends after %d of %d net(s)", k, *nets));
      break;
    }
    const auto htok = util::split(*hl);
    std::optional<int> id, pins;
    if (htok.size() == 3 && htok[0] == "net") {
      id = util::parse_int(htok[1]);
      pins = util::parse_int(htok[2]);
    }
    if (!id || !pins || *pins < 0) {
      emit("L2L-R001", Severity::kError, lineno,
           "bad net header '" + util::excerpt(*hl) + "'",
           "write 'net <id> <pin-count>'");
      break;
    }
    const int header = lineno;
    const auto [it, fresh] = net_line.try_emplace(*id, header);
    if (!fresh)
      emit("L2L-R005", Severity::kError, header,
           util::format("duplicate net id %d (first on line %d)", *id,
                        it->second));
    std::set<gen::GridPoint> distinct;
    int parsed_pins = 0;
    for (int q = 0; q < *pins; ++q) {
      const auto pl = next_line();
      if (!pl) {
        emit("L2L-R001", Severity::kError, lineno,
             util::format("file ends after %d of %d pin(s) of net %d", q,
                          *pins, *id));
        break;
      }
      const auto g = reference_parse_point(*pl);
      if (!g) {
        emit("L2L-R001", Severity::kError, lineno,
             "bad pin point '" + util::excerpt(*pl) + "'");
        continue;
      }
      ++parsed_pins;
      if (grid_ok && !p.in_bounds(*g)) {
        emit("L2L-R003", Severity::kError, lineno,
             util::format("pin (%d %d %d) of net %d off-grid", g->x, g->y,
                          g->layer, *id));
        continue;
      }
      if (grid_ok && p.is_blocked(*g))
        emit("L2L-R004", Severity::kError, lineno,
             util::format("pin (%d %d %d) of net %d on a blocked cell", g->x,
                          g->y, g->layer, *id),
             "a pin under an obstacle can never be reached");
      else if (grid_ok) {
        const auto [at, fresh] = first_pin.try_emplace(*g, FirstPin{k, *id, lineno});
        if (!fresh && at->second.net_index != k)
          emit("L2L-R007", Severity::kError, lineno,
               util::format("pin (%d %d %d) of net %d is also a pin of net %d "
                            "(line %d)",
                            g->x, g->y, g->layer, *id, at->second.id,
                            at->second.line),
               "a point belongs to one net; move one of the pins");
      }
      if (!distinct.insert(*g).second)
        emit("L2L-R006", Severity::kWarning, lineno,
             util::format("net %d repeats pin (%d %d %d)", *id, g->x, g->y,
                          g->layer));
    }
    if (parsed_pins > 0 && distinct.size() < 2)
      emit("L2L-R006", Severity::kWarning, header,
           util::format("net %d has %d distinct pin(s); routing needs 2+",
                        *id, static_cast<int>(distinct.size())));
  }
  return done();
}

/// The strict problem reader as a throwing std::getline pull parser.
gen::RoutingProblem reference_parse_problem(const std::string& text) {
  gen::RoutingProblem p;
  std::istringstream in(text);
  std::string line;
  auto next_tokens = [&] {
    while (std::getline(in, line)) {
      const auto t = util::trim(line);
      if (!t.empty()) return util::split(t);
    }
    throw std::invalid_argument("end of file");
  };
  auto count = [](const std::string& token) {
    const auto v = util::parse_int(token);
    if (!v || *v < 0) throw std::invalid_argument("bad count");
    return *v;
  };
  auto point = [&] {
    while (std::getline(in, line)) {
      const auto t = util::trim(line);
      if (t.empty()) continue;
      const auto g = reference_parse_point(std::string(t));
      if (!g) throw std::invalid_argument("bad point");
      if (!p.in_bounds(*g)) throw std::invalid_argument("off the grid");
      return *g;
    }
    throw std::invalid_argument("end of file");
  };
  auto tok = next_tokens();
  if (tok.size() != 4 || tok[0] != "grid")
    throw std::invalid_argument("grid header");
  const auto w = util::parse_int(tok[1]);
  const auto h = util::parse_int(tok[2]);
  const auto nl = util::parse_int(tok[3]);
  if (!w || !h || !nl) throw std::invalid_argument("grid header");
  if (*w < 1 || *h < 1 || *w > (1 << 16) || *h > (1 << 16) || *nl < 1 ||
      *nl > 64 || static_cast<long long>(*w) * *h * *nl > (1LL << 26))
    throw std::invalid_argument("grid range");
  p.width = *w;
  p.height = *h;
  p.num_layers = *nl;
  p.blocked.assign(static_cast<std::size_t>(*nl),
                   std::vector<bool>(static_cast<std::size_t>(*w) *
                                         static_cast<std::size_t>(*h),
                                     false));
  tok = next_tokens();
  if (tok.size() != 2 || tok[0] != "obstacles")
    throw std::invalid_argument("obstacles header");
  for (int k = count(tok[1]); k > 0; --k) {
    const auto g = point();
    p.blocked[static_cast<std::size_t>(g.layer)]
             [static_cast<std::size_t>(g.y) *
                  static_cast<std::size_t>(p.width) +
              static_cast<std::size_t>(g.x)] = true;
  }
  tok = next_tokens();
  if (tok.size() != 2 || tok[0] != "nets")
    throw std::invalid_argument("nets header");
  for (int k = count(tok[1]); k > 0; --k) {
    const auto head = next_tokens();
    if (head.size() != 3 || head[0] != "net")
      throw std::invalid_argument("net header");
    const auto id = util::parse_int(head[1]);
    if (!id) throw std::invalid_argument("net id");
    gen::RoutingNet net;
    net.id = *id;
    for (int q = count(head[2]); q > 0; --q) net.pins.push_back(point());
    p.nets.push_back(std::move(net));
  }
  return p;
}

/// Every field of every finding, so a moved column or hint shows too.
std::string render_fields(const std::vector<Finding>& findings) {
  std::string out;
  for (const auto& f : findings)
    out += f.rule + "|" + lint::severity_name(f.severity) + "|" +
           std::to_string(f.line) + "|" + std::to_string(f.column) + "|" +
           f.message + "|" + f.hint + "\n";
  return out;
}

/// A seeded problem text: a generated problem, sometimes with a pin moved
/// onto an obstacle, a net id copied from another net or a pin copied
/// from another net's pins, written out and
/// then edited line by line -- a grid header past the caps; lines dropped,
/// duplicated, swapped, copied over others or junk inserted; the text cut
/// after a line; digits flipped; points given two or four coordinates;
/// numbers set to INT_MAX or just past it; counts made negative -- and,
/// one text in six, written with "\r\n" line ends, one in eight with
/// blank lines after the last.
std::string random_problem_text(util::Rng& rng) {
  gen::RoutingGenOptions opt;
  opt.width = 4 + static_cast<int>(rng.next_below(8));
  opt.height = 4 + static_cast<int>(rng.next_below(8));
  opt.num_nets = 1 + static_cast<int>(rng.next_below(4));
  opt.max_pins_per_net = 2 + static_cast<int>(rng.next_below(2));
  opt.obstacle_fraction = 0.15;
  auto problem = gen::generate_routing(opt, rng);
  if (rng.next_below(4) == 0) {
    std::vector<gen::GridPoint> blocked;
    for (int l = 0; l < problem.num_layers; ++l)
      for (int y = 0; y < problem.height; ++y)
        for (int x = 0; x < problem.width; ++x)
          if (problem.is_blocked({x, y, l})) blocked.push_back({x, y, l});
    auto& pins = problem.nets[rng.next_below(problem.nets.size())].pins;
    if (!blocked.empty())
      pins[rng.next_below(pins.size())] =
          blocked[rng.next_below(blocked.size())];
  }
  if (problem.nets.size() > 1 && rng.next_below(4) == 0)
    problem.nets[rng.next_below(problem.nets.size())].id =
        problem.nets[rng.next_below(problem.nets.size())].id;
  if (problem.nets.size() > 1 && rng.next_below(8) == 0) {
    const auto& from = problem.nets[rng.next_below(problem.nets.size())].pins;
    const auto pin = from[rng.next_below(from.size())];
    auto& to = problem.nets[rng.next_below(problem.nets.size())].pins;
    to[rng.next_below(to.size())] = pin;
  }

  auto lines = parse_corpus::lines_of(route::write_problem(problem));
  static constexpr const char* kInsaneGrid[] = {
      "grid 65537 4 2", "grid 4 4 65", "grid 8192 8192 2", "grid 0 4 2",
      "grid 4 -4 2"};
  if (rng.next_below(16) == 0)
    lines[0] = kInsaneGrid[rng.next_below(std::size(kInsaneGrid))];
  static constexpr const char* kJunk[] = {
      "junk", "net", "(1 2)", "grid 3 3", "obstacles -1", "nets x", "#",
      "(a b c)", "  ", "net 1 2 3", "(0 0 0)", "nets 1", "(1 1 1 1)"};
  const auto any_line = [&] { return rng.next_below(lines.size()); };
  const auto edits = rng.next_below(4);
  for (std::uint64_t e = 0; e < edits && !lines.empty(); ++e) {
    auto& line = lines[any_line()];
    switch (rng.next_below(10)) {
      case 0:
        lines.erase(lines.begin() + static_cast<long>(any_line()));
        break;
      case 9: lines.resize(any_line()); break;
      case 1: {
        const auto at = any_line();
        lines.insert(lines.begin() + static_cast<long>(at), lines[at]);
        break;
      }
      case 2: std::swap(line, lines[any_line()]); break;
      case 3: line = lines[any_line()]; break;
      case 4:
        lines.insert(lines.begin() + static_cast<long>(any_line()),
                     kJunk[rng.next_below(std::size(kJunk))]);
        break;
      case 5: {
        const auto digit = line.find_first_of("0123456789");
        if (digit != std::string::npos)
          line[digit + rng.next_below(line.size() - digit)] =
              "0123456789-x"[rng.next_below(12)];
        break;
      }
      case 6: {  // two or four coordinates
        const auto close = line.rfind(')');
        if (close == std::string::npos) break;
        if (rng.next_bool()) {
          line.insert(close, " 0");
        } else {
          const auto space = line.rfind(' ');
          if (space != std::string::npos) line.erase(space, close - space);
        }
        break;
      }
      case 7:
      case 8: {  // the last number: INT_MAX, past it, or a negative count
        const auto end = line.find_last_of("0123456789");
        if (end == std::string::npos) break;
        auto begin = line.find_last_not_of("0123456789", end);
        begin = begin == std::string::npos ? 0 : begin + 1;
        static constexpr const char* kNumbers[] = {"2147483647", "2147483648",
                                                   "-1", "-2147483648"};
        line.replace(begin, end + 1 - begin,
                     kNumbers[rng.next_below(std::size(kNumbers))]);
        break;
      }
    }
  }
  const char* eol = rng.next_below(6) == 0 ? "\r\n" : "\n";
  std::string text;
  for (const auto& l : lines) text += l + eol;
  if (!text.empty() && rng.next_below(8) == 0) text.pop_back();
  if (rng.next_below(8) == 0) text += "\n \t\n";
  return text;
}

/// Whether `parse` returns without an std::invalid_argument.
template <typename Parse>
bool accepts(Parse&& parse) {
  try {
    parse();
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

// lint_route_problem and route::parse_problem against the two readers
// they replaced, over the file corpus and seeded problem mutants: every
// finding field for field, the strict verdict, and the bytes
// write_problem gives back for every accepted text. Every text is far
// below util::kMaxDefects, so no finding is cut.
TEST(CheckerOracle, RouteProblemMatchesTheReferences) {
  std::vector<std::string> texts;
  for (const auto& file : parse_corpus::file_corpus())
    texts.push_back(file.text);
  util::Rng rng(0x9b0b);
  for (int m = 0; m < 2400; ++m) texts.push_back(random_problem_text(rng));

  std::map<std::string, int> seen;
  int accepted = 0, rejected = 0;
  for (const auto& text : texts) {
    const auto want = reference_lint_route_problem(text);
    tally(seen, want);
    ASSERT_EQ(render_fields(lint::lint_route_problem(text)),
              render_fields(want))
        << text;
    // The strict reader also rejects what no route can satisfy: a pin on
    // an obstacle (R004), a repeated net id (R005) and a point two nets
    // have a pin on (R007).
    const bool unroutable =
        std::any_of(want.begin(), want.end(), [](const Finding& f) {
          return f.rule == "L2L-R004" || f.rule == "L2L-R005" ||
                 f.rule == "L2L-R007";
        });
    gen::RoutingProblem got, ref;
    const bool ok = accepts([&] { got = route::parse_problem(text); });
    const bool ref_ok = accepts([&] { ref = reference_parse_problem(text); });
    ASSERT_EQ(ok, ref_ok && !unroutable) << text;
    if (!ok) {
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_EQ(route::write_problem(got), route::write_problem(ref)) << text;
  }
  for (const char* rule : {"L2L-R001", "L2L-R002", "L2L-R003", "L2L-R004",
                           "L2L-R005", "L2L-R006", "L2L-R007"})
    EXPECT_GE(seen[rule], 20) << rule;
  EXPECT_GE(accepted, 400);
  EXPECT_GE(rejected, 400);
}

// ---- allocation bounded by the bytes -----------------------------------

/// Bytes operator new hands out while `f` runs.
template <typename F>
std::size_t bytes_allocated_by(F&& f) {
  const std::size_t before = g_new_bytes.load();
  f();
  return g_new_bytes.load() - before;
}

TEST(CheckerOracle, HostileCountsAllocateByTheBytesNotTheValues) {
  // A header at the variable cap and ids and sites at INT_MAX: tables
  // sized by any of those values would take megabytes; sized by the
  // upload, each check stays within a few kilobytes.
  constexpr std::size_t kBudget = 16 * 1024;
  const std::string cnf = "p cnf 16777216 1\n16777216 0\n";
  const std::size_t cnf_bytes =
      bytes_allocated_by([&] { EXPECT_EQ(sema::analyze_cnf(cnf).size(), 1u); });
  EXPECT_LT(cnf_bytes, kBudget);
  // lint_cnf tracks variables up to a cap; at the cap, its tables are
  // sized by the upload too.
  const std::string capped = "p cnf 1048576 1\n1048576 0\n";
  const std::size_t lint_bytes =
      bytes_allocated_by([&] { EXPECT_EQ(lint::lint_cnf(capped).size(), 1u); });
  EXPECT_LT(lint_bytes, kBudget);

  const std::string line = "cell 2147483647 2147483647 2147483647\n";
  const std::string placement = line + line;
  const std::size_t place_bytes = bytes_allocated_by(
      [&] { EXPECT_EQ(lint::lint_placement(placement).size(), 1u); });
  EXPECT_LT(place_bytes, kBudget);

  place::GridPlacement far;
  far.col = {INT_MAX - 1, 0};
  far.row = {INT_MAX - 1, 0};
  const place::Grid huge{INT_MAX, INT_MAX, 1.0, 1.0};
  const std::size_t legal_bytes =
      bytes_allocated_by([&] { EXPECT_TRUE(place::is_legal(far, huge)); });
  EXPECT_LT(legal_bytes, kBudget);
}

TEST(CheckerOracle, WireListCountsAllocateByTheBytes) {
  // A stored record claiming a list of 2^30 or 2^62 elements with 12
  // bytes behind it fails before the list allocates at all; a vector
  // sized by the count would take gigabytes. A count the bytes could
  // hold (6) grows the list only as elements decode.
  const auto fields = [](auto& io, auto& v) {
    io.list(v, [](auto& io, auto& x) { io.i64(x); });
  };
  for (const std::int64_t count : {std::int64_t{1} << 30,
                                   std::int64_t{1} << 62, std::int64_t{6}}) {
    std::string bytes;
    cache::append_i64(bytes, count);
    for (int k = 0; k < 2; ++k) cache::append_i64(bytes, 1000 + k);
    std::vector<std::int64_t> v;
    const std::size_t used = bytes_allocated_by(
        [&] { EXPECT_FALSE(cache::wire::decode(bytes, v, fields)) << count; });
    if (count == 6) {
      EXPECT_LT(used, 1024u);
    } else {
      EXPECT_EQ(used, 0u) << count;
    }
  }
}

// ---- keys chosen to collide ---------------------------------------------

/// `count` distinct ints in [first, limit) whose util::SplitMix64Hash
/// lands in the first `window` slots of a table of 2^`table_bits` slots.
/// The hash is public and unseeded, so anyone can compute such keys
/// offline; in a linearly probed table sized by the upload they pile
/// every insert into one cluster, and N inserts walk ~N^2/2 slots.
std::vector<int> colliding_keys(std::size_t count, int table_bits,
                                std::uint64_t window, int first, int limit) {
  const std::uint64_t mask = (std::uint64_t{1} << table_bits) - 1;
  std::vector<int> keys;
  for (int k = first; keys.size() < count && k < limit; ++k)
    if ((util::SplitMix64Hash{}(static_cast<std::uint64_t>(k)) & mask) <
        window)
      keys.push_back(k);
  EXPECT_EQ(keys.size(), count);
  return keys;
}

/// Fastest of three runs of `f`, in seconds.
template <typename F>
double best_seconds(F&& f) {
  double best = 1e9;
  for (int run = 0; run < 3; ++run) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    best = std::min(best, std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  return best;
}

/// Checking an upload keyed by `colliding` must cost about what the same
/// upload keyed by `ordinary` costs. A checker that hashes the keys into
/// a table sized by the upload takes ~N/2 probes per insert on the
/// colliding one -- thousands of times the ordinary cost here.
template <typename Check>
void expect_collisions_cost_nothing(const std::string& ordinary,
                                    const std::string& colliding,
                                    Check&& check) {
  const double base = best_seconds([&] { check(ordinary); });
  const double hostile = best_seconds([&] { check(colliding); });
  EXPECT_LT(hostile, 4 * base + 0.05)
      << "ordinary keys " << base << " s, colliding keys " << hostile << " s";
}

TEST(CheckerOracle, CollidingKeysCostNoMoreThanOrdinaryOnes) {
  // 2^16 records each; a table of twice that many slots has 2^17 of
  // them (2^18 for the CNF's 2^17 literals).
  constexpr std::size_t kRecords = std::size_t{1} << 16;
  const auto sequential = [](int first) {
    std::vector<int> keys(kRecords);
    std::iota(keys.begin(), keys.end(), first);
    return keys;
  };

  // Route solutions: one empty block per net id, graded (which lints
  // too) against a small problem that names none of them.
  const auto route_upload = [](const std::vector<int>& ids) {
    std::string text = std::to_string(ids.size()) + "\n";
    for (const int id : ids) text += "net " + std::to_string(id) + "\n!\n";
    return text;
  };
  util::Rng rng(23);
  gen::RoutingGenOptions opt;
  opt.width = 16;
  opt.height = 16;
  opt.num_nets = 4;
  const auto problem = gen::generate_routing(opt, rng);
  expect_collisions_cost_nothing(
      route_upload(sequential(1000)),
      route_upload(colliding_keys(kRecords, 17, 1024, 1000, INT_MAX)),
      [&](const std::string& text) {
        const auto g = grader::grade_routing_text(problem, text);
        EXPECT_EQ(g.legal_nets, 0);
      });

  // CNF: clauses (a b) and (-a -b) over consecutive variable pairs, so
  // every variable occurs in both phases and nothing is found.
  const auto cnf_upload = [](const std::vector<int>& vars) {
    std::string text = "p cnf 16777216 " + std::to_string(vars.size()) + "\n";
    for (std::size_t i = 0; i + 1 < vars.size(); i += 2) {
      const std::string a = std::to_string(vars[i]);
      const std::string b = std::to_string(vars[i + 1]);
      text += a + " " + b + " 0\n-" + a + " -" + b + " 0\n";
    }
    return text;
  };
  expect_collisions_cost_nothing(
      cnf_upload(sequential(1)),
      cnf_upload(
          colliding_keys(kRecords, 18, 2048, 1, sat::kMaxDimacsVars + 1)),
      [](const std::string& text) {
        EXPECT_TRUE(sema::analyze_cnf(text).empty());
      });

  // Spec-less placements: each id on its own site in row 0.
  const auto place_upload = [](const std::vector<int>& ids) {
    std::string text;
    for (std::size_t i = 0; i < ids.size(); ++i)
      text += "cell " + std::to_string(ids[i]) + " " + std::to_string(i) +
              " 0\n";
    return text;
  };
  expect_collisions_cost_nothing(
      place_upload(sequential(0)),
      place_upload(colliding_keys(kRecords, 17, 1024, 0, INT_MAX)),
      [](const std::string& text) {
        EXPECT_TRUE(lint::lint_placement(text).empty());
      });
}

// ---- the parse fuzzer's mutants -----------------------------------------

TEST(CheckerOracle, FuzzerMutantsMatchTheReferences) {
  // The same streams as parse_fuzz_test: seed, corpus order, donors and
  // mutant counts, so these are exactly the mutants it checks.
  int cnf_mutants = 0;
  {
    const auto files = parse_corpus::file_corpus();
    util::Rng rng(0x5eed);
    for (std::size_t i = 0; i < files.size(); ++i) {
      const auto& [name, text] = files[i];
      if (text.size() > parse_corpus::kMaxBytes) continue;
      const auto& donor = files[(i + 1) % files.size()].text;
      const bool cnf =
          lint::lint_text(name, text).format == lint::Format::kCnf;
      for (int m = 0; m < parse_corpus::kMutants; ++m) {
        const std::string mutant = parse_corpus::mutate(text, donor, rng);
        if (!cnf) continue;
        ++cnf_mutants;
        ASSERT_EQ(render(sema::analyze_cnf(mutant)),
                  render(reference_analyze_cnf(mutant)))
            << name << " mutant " << m << ":\n" << mutant;
        ASSERT_EQ(render(lint::lint_cnf(mutant)),
                  render(reference_lint_cnf(mutant)))
            << name << " mutant " << m << ":\n" << mutant;
      }
    }
  }
  EXPECT_GT(cnf_mutants, 0);

  const auto pfx = parse_corpus::place_fixture(7);
  const auto uploads = parse_corpus::place_uploads(pfx, 7);
  const lint::PlacementSpec spec{pfx.problem.num_cells,
                                 pfx.grid.sites_per_row, pfx.grid.rows};
  util::Rng rng(0xf00d);
  for (std::size_t i = 0; i < uploads.size(); ++i)
    for (int m = 0; m < parse_corpus::kMutants; ++m) {
      const std::string mutant = parse_corpus::mutate(
          uploads[i].text, uploads[(i + 1) % uploads.size()].text, rng);
      const std::string what = "place/" + uploads[i].name + " mutant " +
                               std::to_string(m) + ":\n" + mutant;
      ASSERT_EQ(render(lint::lint_placement(mutant, spec)),
                render(reference_lint_placement(mutant, spec)))
          << what;
      const auto gp =
          place::parse_placement_lenient(mutant, spec.num_cells).placement;
      EXPECT_EQ(place::is_legal(gp, pfx.grid), reference_is_legal(gp, pfx.grid))
          << what;
    }
}

}  // namespace
}  // namespace l2l
