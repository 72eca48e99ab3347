#include "cubes/urp.hpp"

#include <cstddef>
#include <cstdlib>
#include <tuple>
#include <utility>
#include <vector>

namespace l2l::cubes {
namespace {

/// Merge step of simplify(): x'·f0 + x·f1, re-attaching the splitting
/// literal.
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

struct Split {
  int var = -1;         ///< -1 when no variable appears
  bool binate = false;  ///< var appears in both phases
  bool empty = false;   ///< some cube has a 00 (contradiction) position
};

/// The column-count pass: per variable, the cubes of [first, last) that
/// hold x and that hold x'. Picks the most binate variable: binate over
/// unate, then most occurrences, then the more balanced phase split, then
/// the lowest index. A cover is unate exactly when the pick is not binate.
/// `counts` is scratch, two entries per variable.
Split choose_split(const Cube* first, const Cube* last, int num_vars,
                   std::vector<int>& counts) {
  counts.assign(2 * static_cast<std::size_t>(num_vars), 0);
  bool empty = false;
  for (; first != last; ++first)
    first->for_each_literal([&](int v, Pcn code) {
      if (code == Pcn::kPos) ++counts[2 * static_cast<std::size_t>(v)];
      if (code == Pcn::kNeg) ++counts[2 * static_cast<std::size_t>(v) + 1];
      if (code == Pcn::kEmpty) empty = true;
    });
  Split best;
  best.empty = empty;
  int best_count = 0;
  int best_balance = 0;
  for (int v = 0; v < num_vars; ++v) {
    const int p = counts[2 * static_cast<std::size_t>(v)];
    const int q = counts[2 * static_cast<std::size_t>(v) + 1];
    if (p + q == 0) continue;
    const bool binate = p > 0 && q > 0;
    const int count = p + q;
    const int balance = -std::abs(p - q);
    if (best.var < 0 ||
        std::make_tuple(binate, count, balance) >
            std::make_tuple(best.binate, best_count, best_balance)) {
      best.var = v;
      best.binate = binate;
      best_count = count;
      best_balance = balance;
    }
  }
  return best;
}

/// One top-level URP call's scratch. A recursion node's cover is the index
/// span [b, e) of `arena`, and the arena ends at e while the node runs. A
/// cofactor appends the next level's cubes past e; the node cuts the arena
/// back to e when that child returns. Indices, not pointers, name spans:
/// an append may move the arena.
class Urp {
 public:
  /// The top-level span is [0, end()): `cubes` itself.
  Urp(int num_vars, std::vector<Cube> cubes)
      : n_(num_vars), arena_(std::move(cubes)) {}

  std::size_t end() const { return arena_.size(); }

  bool tautology(std::size_t b, std::size_t e) {
    if (b == e) return false;
    if (has_universal(b, e)) return true;
    // Terminal case: a unate cover with no universal cube is not a
    // tautology (each cube misses the point that negates one of its
    // literals, and unateness lets us pick a single witness consistent
    // across cubes).
    const Split s = split(b, e);
    if (!s.binate) return false;
    const bool t0 = tautology(e, cofactor(b, e, s.var, false));
    arena_.resize(e);
    if (!t0) return false;
    const bool t1 = tautology(e, cofactor(b, e, s.var, true));
    arena_.resize(e);
    return t1;
  }

  /// Appends the complement of [b, e) to `out`. No containment pass at
  /// the merge: the two halves differ in the split variable, and each is
  /// containment-free by induction.
  void complement(std::size_t b, std::size_t e, std::vector<Cube>& out) {
    if (b == e) {
      out.emplace_back(n_);
      return;
    }
    if (has_universal(b, e)) return;
    if (e - b == 1) {
      // De Morgan on a single cube: OR of opposite single-literal cubes.
      const Cube& c = arena_[b];
      for (int v = 0; v < n_; ++v) {
        if (c.code(v) == Pcn::kDontCare) continue;
        out.emplace_back(n_).set_code(
            v, c.code(v) == Pcn::kPos ? Pcn::kNeg : Pcn::kPos);
      }
      return;
    }
    // x'·C0 + x·C1: each half gets its literal stamped in place.
    const int v = split(b, e).var;
    for (const bool phase : {false, true}) {
      const std::size_t o = out.size();
      complement(e, cofactor(b, e, v, phase), out);
      arena_.resize(e);
      for (std::size_t i = o; i < out.size(); ++i)
        out[i].set_code(v, phase ? Pcn::kPos : Pcn::kNeg);
    }
  }

  /// The supercube of the complement of [b, e), by the same split as
  /// complement() with each half kept as its supercube; nullopt when
  /// the complement is empty.
  std::optional<Cube> sccc(std::size_t b, std::size_t e) {
    if (b == e) return Cube(n_);
    if (has_universal(b, e)) return std::nullopt;
    // A single cube needs no count pass to be known unate.
    if (e - b == 1) return unate_sccc(b, e);
    const Split s = split(b, e);
    if (!s.binate && !s.empty) return unate_sccc(b, e);
    const int v = s.var;
    auto s0 = sccc(e, cofactor(b, e, v, false));
    arena_.resize(e);
    auto s1 = sccc(e, cofactor(b, e, v, true));
    arena_.resize(e);
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

 private:
  /// The unate terminal (Brayton et al.) for a unate span with no
  /// universal cube: the product of the opposite literals of its
  /// one-literal cubes. The complement lies inside that product, and
  /// every other variable takes both values on it: the point with each
  /// variable at its falsifying phase misses every cube (none is
  /// universal), and so does that point with one such variable flipped.
  /// The supercube is unique, so this is the cube the split would return.
  Cube unate_sccc(std::size_t b, std::size_t e) const {
    Cube out(n_);
    for (std::size_t i = b; i < e; ++i)
      if (arena_[i].num_literals() == 1)
        arena_[i].for_each_literal([&](int v, Pcn code) {
          out.set_code(v, code == Pcn::kPos ? Pcn::kNeg : Pcn::kPos);
        });
    return out;
  }

  bool has_universal(std::size_t b, std::size_t e) const {
    for (std::size_t i = b; i < e; ++i)
      if (arena_[i].is_universal()) return true;
    return false;
  }

  Split split(std::size_t b, std::size_t e) {
    return choose_split(arena_.data() + b, arena_.data() + e, n_, counts_);
  }

  /// Appends the cofactor of [b, e) by literal (var, phase), whose cubes
  /// keep their order, and returns the arena's new end.
  std::size_t cofactor(std::size_t b, std::size_t e, int var, bool phase) {
    const Pcn need = phase ? Pcn::kPos : Pcn::kNeg;
    for (std::size_t i = b; i < e; ++i) {
      const Pcn have = arena_[i].code(var);
      if (have != Pcn::kDontCare && have != need) continue;
      arena_.push_back(arena_[i]);
      arena_.back().set_code(var, Pcn::kDontCare);
    }
    return arena_.size();
  }

  int n_;
  std::vector<Cube> arena_;
  std::vector<int> counts_;
};

}  // namespace

int select_split_var(const Cover& f) {
  std::vector<int> counts;
  const Cube* first = f.cubes().data();
  return choose_split(first, first + f.size(), f.num_vars(), counts).var;
}

bool is_unate(const Cover& f) {
  std::vector<int> counts;
  const Cube* first = f.cubes().data();
  return !choose_split(first, first + f.size(), f.num_vars(), counts).binate;
}

bool is_tautology(const Cover& f) {
  return is_tautology(f.num_vars(), f.cubes());
}

bool is_tautology(int num_vars, std::vector<Cube> cubes) {
  Urp u(num_vars, std::move(cubes));
  return u.tautology(0, u.end());
}

bool cover_contains_cube(const Cover& f, const Cube& c) {
  // An empty cube denotes no point, so every cover contains it.
  if (c.is_empty()) return true;
  // f contains c iff f's cofactor by c is a tautology. One pass of the
  // cube cofactor keeps the cubes the literal-by-literal cofactor keeps
  // (those at distance 0 from c), in order, with c's literals raised.
  std::vector<Cube> fc;
  fc.reserve(f.cubes().size());
  for (const auto& d : f.cubes())
    if (auto cf = d.cofactor(c)) fc.push_back(std::move(*cf));
  return is_tautology(f.num_vars(), std::move(fc));
}

bool covers_equal(const Cover& f, const Cover& g) {
  for (const auto& c : f.cubes())
    if (!cover_contains_cube(g, c)) return false;
  for (const auto& c : g.cubes())
    if (!cover_contains_cube(f, c)) return false;
  return true;
}

Cover complement(const Cover& f) {
  Urp u(f.num_vars(), f.cubes());
  std::vector<Cube> out;
  u.complement(0, u.end(), out);
  return Cover(f.num_vars(), std::move(out));
}

std::optional<Cube> sccc(const Cover& f) {
  return sccc(f.num_vars(), f.cubes());
}

std::optional<Cube> sccc(int num_vars, std::vector<Cube> cubes) {
  Urp u(num_vars, std::move(cubes));
  return u.sccc(0, u.end());
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
