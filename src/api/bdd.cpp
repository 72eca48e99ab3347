#include "api/bdd.hpp"

#include <cctype>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "api/detail.hpp"
#include "bdd/bdd.hpp"
#include "bdd/manager.hpp"
#include "cache/cache.hpp"
#include "util/budget.hpp"
#include "util/strings.hpp"

namespace l2l::api {

namespace {

constexpr std::uint64_t kBddFormatVersion = 1;

using bdd::Bdd;
using bdd::Manager;

// The kbdd_lite script interpreter (see the command table in
// tools/kbdd_lite.cpp). One instance per script run; state is the
// declared variable order plus the named-function environment.
class Calculator {
 public:
  void set_budget(const util::Budget* budget) { mgr_.set_budget(budget); }

  int run(std::istream& in, std::ostream& out, util::Status& status) {
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      const auto t = std::string(util::trim(line));
      if (t.empty() || t[0] == '#') continue;
      try {
        execute(t, out);
      } catch (const util::BudgetExceededError& e) {
        out << "error on line " << lineno << ": " << e.what() << "\n";
        status = e.status();
        return util::exit_code_for(e.status());
      } catch (const std::exception& e) {
        out << "error on line " << lineno << ": " << e.what() << "\n";
        status = util::Status::parse_error(e.what());
        return util::kExitParse;
      }
    }
    return util::kExitOk;
  }

 private:
  void execute(const std::string& cmd, std::ostream& out) {
    const auto tok = util::split(cmd);
    if (tok[0] == "var") {
      for (std::size_t k = 1; k < tok.size(); ++k) {
        if (vars_.count(tok[k]))
          throw std::runtime_error("duplicate var " + tok[k]);
        vars_[tok[k]] = mgr_.new_var();
        order_.push_back(tok[k]);
      }
      return;
    }
    if (tok.size() >= 3 && tok[1] == "=") {
      std::string expr;
      for (std::size_t k = 2; k < tok.size(); ++k) expr += tok[k] + " ";
      fns_.insert_or_assign(tok[0], parse_expr(expr));
      return;
    }
    if (tok[0] == "print") {
      const Bdd f = lookup(tok.at(1));
      if (mgr_.num_vars() > 12)
        throw std::runtime_error("too many vars to print");
      out << "minterms of " << tok[1] << ":";
      std::vector<bool> a(static_cast<std::size_t>(mgr_.num_vars()));
      for (std::uint64_t m = 0; m < (1ull << mgr_.num_vars()); ++m) {
        for (int v = 0; v < mgr_.num_vars(); ++v)
          a[static_cast<std::size_t>(v)] = (m >> v) & 1;
        if (f.eval(a)) out << " " << m;
      }
      out << "\n";
      return;
    }
    if (tok[0] == "satcount") {
      out << tok.at(1) << " has " << lookup(tok[1]).sat_count()
          << " satisfying assignments\n";
      return;
    }
    if (tok[0] == "onesat") {
      const auto s = lookup(tok.at(1)).one_sat();
      if (!s) {
        out << tok[1] << " UNSAT\n";
        return;
      }
      out << tok[1] << " SAT:";
      for (std::size_t v = 0; v < s->size(); ++v) {
        if ((*s)[v] < 0) continue;
        out << " " << order_[v] << "=" << static_cast<int>((*s)[v]);
      }
      out << "\n";
      return;
    }
    if (tok[0] == "equal") {
      out << tok.at(1) << " and " << tok.at(2) << " are "
          << (lookup(tok[1]) == lookup(tok[2]) ? "EQUAL" : "NOT EQUAL")
          << "\n";
      return;
    }
    if (tok[0] == "size") {
      out << tok.at(1) << " has " << lookup(tok[1]).size() << " BDD nodes\n";
      return;
    }
    if (tok[0] == "support") {
      out << "support(" << tok.at(1) << "):";
      for (const int v : lookup(tok[1]).support())
        out << " " << order_[static_cast<std::size_t>(v)];
      out << "\n";
      return;
    }
    if (tok[0] == "cofactor") {
      fns_.insert_or_assign(
          "it",
          lookup(tok.at(1)).cofactor(var_index(tok.at(2)), tok.at(3) == "1"));
      out << "it = cofactor\n";
      return;
    }
    if (tok[0] == "exists" || tok[0] == "forall") {
      const Bdd f = lookup(tok.at(1));
      const int v = var_index(tok.at(2));
      fns_.insert_or_assign("it",
                            tok[0] == "exists" ? f.exists(v) : f.forall(v));
      out << "it = " << tok[0] << "\n";
      return;
    }
    if (tok[0] == "dot") {
      out << lookup(tok.at(1)).to_dot(tok[1]);
      return;
    }
    throw std::runtime_error("unknown command " + tok[0]);
  }

  int var_index(const std::string& name) const {
    const auto it = vars_.find(name);
    if (it == vars_.end()) throw std::runtime_error("unknown var " + name);
    return it->second;
  }

  Bdd lookup(const std::string& name) {
    if (const auto it = fns_.find(name); it != fns_.end()) return it->second;
    if (const auto it = vars_.find(name); it != vars_.end())
      return mgr_.var(it->second);
    throw std::runtime_error("unknown function " + name);
  }

  // Recursive descent over:  or := xor ('|' xor)* ; xor := and ('^' and)* ;
  // and := unary ('&' unary)* ; unary := '!' unary | atom.
  Bdd parse_expr(const std::string& text) {
    pos_ = 0;
    text_ = text;
    Bdd r = parse_or();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing junk in expr");
    return r;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  Bdd parse_or() {
    Bdd r = parse_xor();
    while (eat('|')) r = r | parse_xor();
    return r;
  }
  Bdd parse_xor() {
    Bdd r = parse_and();
    while (eat('^')) r = r ^ parse_and();
    return r;
  }
  Bdd parse_and() {
    Bdd r = parse_unary();
    while (eat('&')) r = r & parse_unary();
    return r;
  }
  Bdd parse_unary() {
    if (eat('!')) return !parse_unary();
    if (eat('(')) {
      Bdd r = parse_or();
      if (!eat(')')) throw std::runtime_error("missing ')'");
      return r;
    }
    skip_ws();
    if (pos_ < text_.size() && (text_[pos_] == '0' || text_[pos_] == '1')) {
      const bool one = text_[pos_] == '1';
      ++pos_;
      return one ? mgr_.one() : mgr_.zero();
    }
    std::string name;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_'))
      name += text_[pos_++];
    if (name.empty()) throw std::runtime_error("expected identifier");
    return lookup(name);
  }

  Manager mgr_{0};
  std::map<std::string, int> vars_;
  std::vector<std::string> order_;
  std::map<std::string, Bdd> fns_;
  std::string text_;
  std::size_t pos_ = 0;
};

constexpr auto result_fields = [](auto& io, auto& r) {
  io.str(r.output);
  io.i64(r.exit_code);
  cache::wire::status(io, r.status);
};

BddScriptResult run_script(const BddScriptRequest& req) {
  BddScriptResult res;
  Calculator calc;
  util::Budget budget;
  if (req.node_limit >= 0 || req.time_limit_ms >= 0) {
    if (req.node_limit >= 0) budget.set_step_limit(req.node_limit);
    if (req.time_limit_ms >= 0) budget.set_deadline_ms(req.time_limit_ms);
    calc.set_budget(&budget);
  }
  std::istringstream in(req.script);
  std::ostringstream out;
  res.exit_code = calc.run(in, out, res.status);
  res.output = out.str();
  return res;
}

}  // namespace

BddScriptResult run_bdd_script(const BddScriptRequest& req) {
  std::optional<cache::CacheKey> key;
  if (req.cacheable()) {
    cache::Hasher h;
    h.u64(kBddFormatVersion).i64(req.node_limit);
    key = cache::CacheKey{"bdd", cache::digest_bytes(req.script), h.finish()};
  }
  return detail::cached_call<BddScriptResult>(
      key, [&] { return run_script(req); }, result_fields);
}

}  // namespace l2l::api
