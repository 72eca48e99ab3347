#include "cubes/urp.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <tuple>

namespace l2l::cubes {
namespace {

/// Merge step of the URP: x'·f0 + x·f1, re-attaching the splitting literal.
Cover merge_shannon(int var, const Cover& f0, const Cover& f1) {
  Cover out(f0.num_vars());
  out.reserve(f0.size() + f1.size());
  for (const auto& c : f0.cubes()) {
    Cube withLit = c;
    withLit.set_code(var, Pcn::kNeg);
    out.add(std::move(withLit));
  }
  for (const auto& c : f1.cubes()) {
    Cube withLit = c;
    withLit.set_code(var, Pcn::kPos);
    out.add(std::move(withLit));
  }
  return out;
}

}  // namespace

int select_split_var(const Cover& f) {
  const int n = f.num_vars();
  std::vector<int> pos(static_cast<std::size_t>(n), 0);
  std::vector<int> neg(static_cast<std::size_t>(n), 0);
  for (const auto& c : f.cubes())
    c.for_each_literal([&](int v, Pcn code) {
      if (code == Pcn::kPos) ++pos[static_cast<std::size_t>(v)];
      if (code == Pcn::kNeg) ++neg[static_cast<std::size_t>(v)];
    });
  int best = -1;
  bool best_binate = false;
  int best_count = 0;
  int best_balance = 0;
  for (int v = 0; v < n; ++v) {
    const int p = pos[static_cast<std::size_t>(v)];
    const int q = neg[static_cast<std::size_t>(v)];
    if (p + q == 0) continue;
    const bool binate = p > 0 && q > 0;
    const int count = p + q;
    const int balance = -std::abs(p - q);
    // Prefer binate over unate; then most occurrences; then most balanced.
    const auto key = std::make_tuple(binate, count, balance);
    const auto best_key = std::make_tuple(best_binate, best_count, best_balance);
    if (best < 0 || key > best_key) {
      best = v;
      best_binate = binate;
      best_count = count;
      best_balance = balance;
    }
  }
  return best;
}

bool is_unate(const Cover& f) {
  // Bit 0: some cube has x'; bit 1: some cube has x.
  std::vector<std::uint8_t> phases(static_cast<std::size_t>(f.num_vars()), 0);
  bool binate = false;
  for (const auto& c : f.cubes()) {
    c.for_each_literal([&](int v, Pcn code) {
      auto& p = phases[static_cast<std::size_t>(v)];
      if (code == Pcn::kNeg) p |= 1;
      if (code == Pcn::kPos) p |= 2;
      binate = binate || p == 3;
    });
    if (binate) return false;
  }
  return true;
}

bool is_tautology(const Cover& f) {
  if (f.empty()) return false;
  for (const auto& c : f.cubes())
    if (c.is_universal()) return true;
  // Terminal case: a unate cover with no universal cube is not a tautology
  // (each cube misses the point that negates one of its literals, and
  // unateness lets us pick a single witness consistent across cubes).
  if (is_unate(f)) return false;
  const int v = select_split_var(f);
  return is_tautology(f.cofactor(v, false)) &&
         is_tautology(f.cofactor(v, true));
}

bool cover_contains_cube(const Cover& f, const Cube& c) {
  Cover g = f;
  for (int v = 0; v < c.num_vars(); ++v) {
    if (c.code(v) == Pcn::kPos)
      g = g.cofactor(v, true);
    else if (c.code(v) == Pcn::kNeg)
      g = g.cofactor(v, false);
  }
  return is_tautology(g);
}

bool covers_equal(const Cover& f, const Cover& g) {
  for (const auto& c : f.cubes())
    if (!cover_contains_cube(g, c)) return false;
  for (const auto& c : g.cubes())
    if (!cover_contains_cube(f, c)) return false;
  return true;
}

Cover complement(const Cover& f) {
  const int n = f.num_vars();
  if (f.empty()) return Cover::universal(n);
  for (const auto& c : f.cubes())
    if (c.is_universal()) return Cover(n);
  if (f.size() == 1) {
    // De Morgan on a single cube: OR of opposite single-literal cubes.
    Cover out(n);
    const Cube& c = f.cube(0);
    for (int v = 0; v < n; ++v) {
      if (c.code(v) == Pcn::kDontCare) continue;
      Cube lit(n);
      lit.set_code(v, c.code(v) == Pcn::kPos ? Pcn::kNeg : Pcn::kPos);
      out.add(std::move(lit));
    }
    return out;
  }
  // The merge needs no containment pass: the two halves differ in the
  // split variable, and each is containment-free by induction.
  const int v = select_split_var(f);
  return merge_shannon(v, complement(f.cofactor(v, false)),
                       complement(f.cofactor(v, true)));
}

std::optional<Cube> sccc(const Cover& f) {
  const int n = f.num_vars();
  if (f.empty()) return Cube(n);
  for (const auto& c : f.cubes())
    if (c.is_universal()) return std::nullopt;
  if (f.size() == 1) {
    // The complement is the OR of the opposite single literals: their
    // supercube is that literal when the cube has one, else universal.
    Cube out(n);
    const Cube& c = f.cube(0);
    if (c.num_literals() == 1)
      c.for_each_literal([&](int v, Pcn code) {
        out.set_code(v, code == Pcn::kPos ? Pcn::kNeg : Pcn::kPos);
      });
    return out;
  }
  // The same Shannon split as complement(): x'·C0 + x·C1, with each half
  // kept as its supercube.
  const int v = select_split_var(f);
  auto s0 = sccc(f.cofactor(v, false));
  auto s1 = sccc(f.cofactor(v, true));
  if (!s1) {
    if (s0) s0->set_code(v, Pcn::kNeg);
    return s0;
  }
  if (!s0) {
    s1->set_code(v, Pcn::kPos);
    return s1;
  }
  s0->or_with(*s1);  // v stays don't-care in both
  return s0;
}

Cover sharp(const Cover& f, const Cover& g) { return f & complement(g); }

Cover exclusive_or(const Cover& f, const Cover& g) {
  return (f & complement(g)) | (complement(f) & g);
}

Cover exists(const Cover& f, int var) {
  return f.cofactor(var, false) | f.cofactor(var, true);
}

Cover forall(const Cover& f, int var) {
  Cover r = f.cofactor(var, false) & f.cofactor(var, true);
  r.remove_contained_cubes();
  return r;
}

Cover boolean_difference(const Cover& f, int var) {
  return exclusive_or(f.cofactor(var, false), f.cofactor(var, true));
}

Cover simplify(const Cover& f) {
  if (f.size() <= 1) return f;
  if (is_unate(f)) {
    Cover out = f;
    out.remove_contained_cubes();
    return out;
  }
  const int v = select_split_var(f);
  Cover merged = merge_shannon(v, simplify(f.cofactor(v, false)),
                               simplify(f.cofactor(v, true)));
  // Lift cubes that no longer need the splitting literal: if x'·c and x·c
  // both appear they merge; remove_contained_cubes plus a consensus sweep
  // handles the common cases cheaply.
  Cover lifted(f.num_vars());
  lifted.reserve(merged.size());
  for (const auto& c : merged.cubes()) {
    Cube dropped = c;
    dropped.set_code(v, Pcn::kDontCare);
    if (cover_contains_cube(merged, dropped))
      lifted.add(std::move(dropped));
    else
      lifted.add(c);
  }
  lifted.remove_contained_cubes();
  return lifted.num_literals() < f.num_literals() ? lifted : f;
}

}  // namespace l2l::cubes
