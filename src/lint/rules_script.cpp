// Tool-input rule packs for the two remaining portals: kbdd_lite
// calculator scripts (L2L-Kxxx, a static symbol/shape check that never
// builds a BDD) and axb dense linear systems (L2L-Axxx, shape plus the
// symmetry pre-check CG mode needs).

#include <cmath>
#include <set>
#include <sstream>

#include "lint/lint.hpp"
#include "util/strings.hpp"

namespace l2l::lint {
namespace {

bool is_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

}  // namespace

std::vector<Finding> lint_kbdd_script(const std::string& text) {
  std::vector<Finding> out;
  auto emit = [&](const char* rule, util::Severity sev, int line,
                  std::string msg, std::string hint = {}) {
    out.push_back({rule, sev, line, line > 0 ? 1 : 0, std::move(msg),
                   std::move(hint)});
  };

  std::set<std::string> vars, fns;
  // Commands taking exactly one defined-function argument.
  const std::set<std::string> kOneFn = {"print", "satcount", "onesat",
                                        "size",  "support",  "dot"};

  // A name is resolvable as a function operand if it was defined with
  // `name = expr`, or is a declared variable (single-var functions are
  // legal operands everywhere the calculator accepts a function).
  auto known_fn = [&](const std::string& name) {
    return fns.count(name) > 0 || vars.count(name) > 0;
  };

  // Static expression scan: parenthesis balance, token alphabet, and
  // identifier resolution. No BDD is built.
  auto check_expr = [&](const std::string& expr, int line) {
    int depth = 0;
    std::size_t i = 0;
    while (i < expr.size()) {
      const char c = expr[i];
      if (c == ' ' || c == '\t') {
        ++i;
      } else if (c == '(') {
        ++depth;
        ++i;
      } else if (c == ')') {
        if (--depth < 0) break;
        ++i;
      } else if (c == '!' || c == '&' || c == '|' || c == '^') {
        ++i;
      } else if (c == '0' || c == '1') {
        ++i;
      } else if (is_ident_char(c)) {
        std::size_t j = i;
        while (j < expr.size() && is_ident_char(expr[j])) ++j;
        const auto name = expr.substr(i, j - i);
        if (!known_fn(name))
          emit("L2L-K002", util::Severity::kError, line,
               "undefined name '" + name + "' in expression",
               "declare it with 'var' or define it before use");
        i = j;
      } else {
        emit("L2L-K004", util::Severity::kError, line,
             std::string("bad character '") + c + "' in expression",
             "expressions use identifiers, ! & | ^ ( ) 0 1");
        return;
      }
    }
    if (depth != 0)
      emit("L2L-K004", util::Severity::kError, line,
           "unbalanced parentheses in expression");
  };

  std::istringstream in(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    const auto t = std::string(util::trim(raw));
    if (t.empty() || t[0] == '#') continue;
    const auto tok = util::split(t);
    if (tok[0] == "var") {
      for (std::size_t k = 1; k < tok.size(); ++k)
        if (!vars.insert(tok[k]).second)
          emit("L2L-K003", util::Severity::kWarning, lineno,
               "variable '" + tok[k] + "' declared twice");
      continue;
    }
    if (tok.size() >= 3 && tok[1] == "=") {
      std::string expr;
      for (std::size_t k = 2; k < tok.size(); ++k) expr += tok[k] + " ";
      check_expr(expr, lineno);
      fns.insert(tok[0]);
      continue;
    }
    auto need_fn_arg = [&](std::size_t k) {
      if (k >= tok.size()) {
        emit("L2L-K004", util::Severity::kError, lineno,
             "'" + tok[0] + "' is missing an argument");
        return;
      }
      if (!known_fn(tok[k]))
        emit("L2L-K002", util::Severity::kError, lineno,
             "undefined function '" + tok[k] + "'");
    };
    if (kOneFn.count(tok[0])) {
      need_fn_arg(1);
    } else if (tok[0] == "equal") {
      need_fn_arg(1);
      need_fn_arg(2);
    } else if (tok[0] == "cofactor") {
      need_fn_arg(1);
      if (tok.size() < 4 || !vars.count(tok[2]) ||
          (tok[3] != "0" && tok[3] != "1")) {
        emit("L2L-K004", util::Severity::kError, lineno,
             "cofactor wants '<fn> <var> <0|1>'");
      }
      fns.insert("it");
    } else if (tok[0] == "exists" || tok[0] == "forall") {
      need_fn_arg(1);
      if (tok.size() < 3 || !vars.count(tok[2]))
        emit("L2L-K004", util::Severity::kError, lineno,
             "'" + tok[0] + "' wants '<fn> <var>'");
      fns.insert("it");
    } else if (tok[0] == "quit" || tok[0] == "exit") {
      break;
    } else {
      emit("L2L-K001", util::Severity::kError, lineno,
           "unknown command '" + util::excerpt(tok[0]) + "'",
           "see kbdd_lite's header for the command list");
    }
  }

  sort_findings(out);
  return out;
}

std::vector<Finding> lint_axb(const std::string& text) {
  std::vector<Finding> out;
  auto emit = [&](const char* rule, util::Severity sev, int line,
                  std::string msg, std::string hint = {}) {
    out.push_back({rule, sev, line, line > 0 ? 1 : 0, std::move(msg),
                   std::move(hint)});
  };

  // Token stream with line anchors.
  struct Tok {
    std::string text;
    int line;
  };
  std::vector<Tok> toks;
  {
    std::istringstream in(text);
    std::string raw;
    int lineno = 0;
    while (std::getline(in, raw)) {
      ++lineno;
      const auto t = util::trim(raw);
      if (t.empty() || t[0] == '#') continue;
      for (const auto& piece : util::split(t)) toks.push_back({piece, lineno});
      // Hostile floods: the shape rules only need n*(n+1)+1 tokens; a cap
      // keeps the scan linear in sane inputs. Trailing excess is A003.
      if (toks.size() > (4096u + 1) * 4096u + 4096u + 2) break;
    }
  }

  constexpr int kMaxDim = 4096;  // same cap as the axb tool
  if (toks.empty()) {
    emit("L2L-A001", util::Severity::kError, 0, "empty file",
         "first token must be the dimension n");
    return out;
  }
  const auto n = util::parse_int(toks[0].text);
  if (!n || *n < 1 || *n > kMaxDim) {
    emit("L2L-A001", util::Severity::kError, toks[0].line,
         "bad dimension '" + util::excerpt(toks[0].text) + "'",
         util::format("use an integer in [1, %d]", kMaxDim));
    return out;
  }
  const std::size_t want =
      1 + static_cast<std::size_t>(*n) * static_cast<std::size_t>(*n) +
      static_cast<std::size_t>(*n);
  std::vector<double> a;
  bool numbers_ok = true;
  for (std::size_t k = 1; k < toks.size() && k < want; ++k) {
    const auto v = util::parse_double(toks[k].text);
    if (!v) {
      emit("L2L-A002", util::Severity::kError, toks[k].line,
           "entry '" + util::excerpt(toks[k].text) + "' is not a number");
      numbers_ok = false;
      continue;
    }
    if (k <= static_cast<std::size_t>(*n) * static_cast<std::size_t>(*n))
      a.push_back(*v);
  }
  if (toks.size() < want)
    emit("L2L-A002", util::Severity::kError, toks.back().line,
         util::format("file ends early: %d token(s) of %d (n, n*n matrix "
                      "entries, n rhs entries)",
                      static_cast<int>(toks.size()),
                      static_cast<int>(want)));
  else if (toks.size() > want)
    emit("L2L-A003", util::Severity::kWarning, toks[want].line,
         util::format("%d trailing token(s) after the rhs vector",
                      static_cast<int>(toks.size() - want)));
  if (numbers_ok &&
      a.size() ==
          static_cast<std::size_t>(*n) * static_cast<std::size_t>(*n)) {
    for (int i = 0; i < *n; ++i)
      for (int j = i + 1; j < *n; ++j) {
        const double x = a[static_cast<std::size_t>(i) *
                               static_cast<std::size_t>(*n) +
                           static_cast<std::size_t>(j)];
        const double y = a[static_cast<std::size_t>(j) *
                               static_cast<std::size_t>(*n) +
                           static_cast<std::size_t>(i)];
        if (std::abs(x - y) >
            1e-9 * std::max(1.0, std::max(std::abs(x), std::abs(y)))) {
          emit("L2L-A004", util::Severity::kWarning, 0,
               util::format("matrix not symmetric (a[%d][%d]=%g vs "
                            "a[%d][%d]=%g)",
                            i, j, x, j, i, y),
               "--cg requires a symmetric positive definite matrix");
          i = *n;  // one finding is enough
          break;
        }
      }
  }

  sort_findings(out);
  return out;
}

}  // namespace l2l::lint
