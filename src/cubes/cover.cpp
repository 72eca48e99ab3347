#include "cubes/cover.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/strings.hpp"

namespace l2l::cubes {

Cover::Cover(int num_vars, std::vector<Cube> cubes) : num_vars_(num_vars) {
  cubes_.reserve(cubes.size());
  for (auto& c : cubes) add(std::move(c));
}

Cover Cover::parse(int num_vars, const std::string& text) {
  Cover out(num_vars);
  out.reserve(static_cast<int>(
                  std::count(text.begin(), text.end(), '\n')) +
              1);
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const auto t = util::trim(line);
    if (t.empty()) continue;
    Cube c = Cube::parse(t);
    if (c.num_vars() != num_vars)
      throw std::invalid_argument("Cover::parse: cube arity mismatch");
    out.add(std::move(c));
  }
  return out;
}

Cover Cover::universal(int num_vars) {
  Cover out(num_vars);
  out.add(Cube(num_vars));
  return out;
}

Cover Cover::from_truth_table(const tt::TruthTable& f) {
  Cover out(f.num_vars());
  out.reserve(static_cast<int>(f.minterms().size()));
  for (std::uint64_t m : f.minterms()) {
    Cube c(f.num_vars());
    for (int v = 0; v < f.num_vars(); ++v)
      c.set_code(v, ((m >> v) & 1) ? Pcn::kPos : Pcn::kNeg);
    out.add(std::move(c));
  }
  return out;
}

void Cover::add(Cube c) {
  if (c.num_vars() != num_vars_)
    throw std::invalid_argument("Cover::add: cube arity mismatch");
  if (!c.is_empty()) cubes_.push_back(std::move(c));
}

int Cover::num_literals() const {
  int n = 0;
  for (const auto& c : cubes_) n += c.num_literals();
  return n;
}

Cover Cover::operator|(const Cover& o) const {
  if (num_vars_ != o.num_vars_)
    throw std::invalid_argument("Cover::operator|: arity mismatch");
  Cover out = *this;
  out.reserve(size() + o.size());
  for (const auto& c : o.cubes_) out.add(c);
  return out;
}

Cover Cover::operator&(const Cover& o) const {
  if (num_vars_ != o.num_vars_)
    throw std::invalid_argument("Cover::operator&: arity mismatch");
  Cover out(num_vars_);
  out.reserve(static_cast<int>(
      std::min<std::size_t>(cubes_.size() * o.cubes_.size(), 4096)));
  for (const auto& a : cubes_)
    for (const auto& b : o.cubes_) out.add(a.intersect(b));
  return out;
}

Cover Cover::cofactor(int var, bool phase) const {
  Cover out(num_vars_);
  out.reserve(size());
  for (const auto& c : cubes_)
    if (auto cf = c.cofactor(var, phase)) out.add(std::move(*cf));
  return out;
}

bool Cover::depends_on(int var) const {
  for (const auto& c : cubes_)
    if (c.code(var) != Pcn::kDontCare) return true;
  return false;
}

void Cover::remove_contained_cubes() {
  std::vector<bool> dead(cubes_.size(), false);
  for (std::size_t i = 0; i < cubes_.size(); ++i) {
    if (dead[i]) continue;
    for (std::size_t j = 0; j < cubes_.size(); ++j) {
      if (i == j || dead[j]) continue;
      if (cubes_[j].contains(cubes_[i]) &&
          !(cubes_[i] == cubes_[j] && i < j)) {
        dead[i] = true;
        break;
      }
    }
  }
  std::vector<Cube> kept;
  kept.reserve(cubes_.size());
  for (std::size_t i = 0; i < cubes_.size(); ++i)
    if (!dead[i]) kept.push_back(std::move(cubes_[i]));
  cubes_ = std::move(kept);
}

bool Cover::eval(std::uint64_t minterm) const {
  for (const auto& c : cubes_)
    if (c.eval(minterm)) return true;
  return false;
}

tt::TruthTable Cover::to_truth_table() const {
  tt::TruthTable f(num_vars_);
  for (std::uint64_t m = 0; m < f.num_minterms(); ++m)
    if (eval(m)) f.set(m, true);
  return f;
}

std::string Cover::to_string() const {
  std::string out;
  for (const auto& c : cubes_) {
    out += c.to_string();
    out += '\n';
  }
  return out;
}

Cover Cover::sorted() const {
  Cover out = *this;
  std::sort(out.cubes_.begin(), out.cubes_.end());
  out.cubes_.erase(std::unique(out.cubes_.begin(), out.cubes_.end()),
                   out.cubes_.end());
  return out;
}

}  // namespace l2l::cubes
