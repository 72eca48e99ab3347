#include "espresso/minimize.hpp"

#include <algorithm>
#include <vector>

#include "cubes/urp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace l2l::espresso {

using cubes::Cover;
using cubes::Cube;
using cubes::Pcn;

namespace {

/// Does cube c intersect any cube of r?
bool intersects(const Cube& c, const Cover& r) {
  for (const auto& rc : r.cubes())
    if (c.distance(rc) == 0) return true;
  return false;
}

}  // namespace

Cover expand(const Cover& f, const Cover& offset) {
  Cover out(f.num_vars());
  std::vector<Cube> done;
  for (const auto& orig : f.cubes()) {
    Cube c = orig;
    // Greedy raising: repeatedly pick the literal whose removal keeps the
    // cube disjoint from the OFF-set and frees the most OFF-set blocking
    // (heuristic: just first-feasible in variable order, then retry --
    // adequate at course scale and still yields primes).
    bool raised = true;
    while (raised) {
      raised = false;
      for (int v = 0; v < c.num_vars(); ++v) {
        if (c.code(v) == Pcn::kDontCare) continue;
        Cube trial = c;
        trial.set_code(v, Pcn::kDontCare);
        if (!intersects(trial, offset)) {
          c = trial;
          raised = true;
        }
      }
    }
    // Single-cube containment cleanup keeps EXPAND from stuffing the cover
    // with duplicates of the same prime.
    bool contained = false;
    for (const auto& d : done)
      if (d.contains(c)) {
        contained = true;
        break;
      }
    if (!contained) {
      done.push_back(c);
      out.add(std::move(c));
    }
  }
  return out;
}

Cover irredundant(const Cover& f, const Cover& dc) {
  // Greedy: try to drop each cube (largest first so small leftovers are
  // preferentially kept as the exclusive covers).
  std::vector<int> order(static_cast<std::size_t>(f.size()));
  for (int i = 0; i < f.size(); ++i) order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return f.cube(a).num_literals() > f.cube(b).num_literals();
  });
  std::vector<bool> alive(static_cast<std::size_t>(f.size()), true);
  for (const int i : order) {
    // dc plus the other live cubes contain c iff their cofactor by c is a
    // tautology: the arena is built from them directly, no union Cover.
    const Cube& c = f.cube(i);
    std::vector<Cube> rest_c;
    rest_c.reserve(static_cast<std::size_t>(dc.size() + f.size()));
    auto add_cofactor = [&](const Cube& d) {
      if (auto cf = d.cofactor(c)) rest_c.push_back(std::move(*cf));
    };
    for (const auto& d : dc.cubes()) add_cofactor(d);
    for (int j = 0; j < f.size(); ++j)
      if (j != i && alive[static_cast<std::size_t>(j)]) add_cofactor(f.cube(j));
    if (cubes::is_tautology(f.num_vars(), std::move(rest_c)))
      alive[static_cast<std::size_t>(i)] = false;
  }
  Cover out(f.num_vars());
  for (int i = 0; i < f.size(); ++i)
    if (alive[static_cast<std::size_t>(i)]) out.add(f.cube(i));
  return out;
}

Cover reduce(const Cover& f, const Cover& dc) {
  // Process largest cubes first; each cube shrinks against the rest of the
  // *current* (partially reduced) cover, preserving the overall function.
  std::vector<Cube> current(f.cubes());
  std::vector<int> order(current.size());
  for (std::size_t i = 0; i < current.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return current[static_cast<std::size_t>(a)].num_literals() <
           current[static_cast<std::size_t>(b)].num_literals();
  });
  for (const int i : order) {
    const Cube& c = current[static_cast<std::size_t>(i)];
    // The exclusive part of c is c AND NOT rest; its supercube is
    // c ∩ sccc(rest|c), with rest cofactored by c's literals.
    std::vector<Cube> rest_c;
    rest_c.reserve(static_cast<std::size_t>(dc.size()) + current.size());
    auto add_cofactor = [&](const Cube& d) {
      if (auto cf = d.cofactor(c)) rest_c.push_back(std::move(*cf));
    };
    for (const auto& d : dc.cubes()) add_cofactor(d);
    for (std::size_t j = 0; j < current.size(); ++j)
      if (static_cast<int>(j) != i) add_cofactor(current[j]);
    const auto s = cubes::sccc(f.num_vars(), std::move(rest_c));
    if (!s) continue;  // fully covered; irredundant removes it
    current[static_cast<std::size_t>(i)] = c.intersect(*s);
  }
  Cover out(f.num_vars());
  for (auto& c : current) out.add(std::move(c));
  return out;
}

Cover minimize(const Cover& f, const Cover& dc, const MinimizeOptions& options,
               MinimizeStats* stats) {
  MinimizeStats local;
  local.initial_cubes = f.size();
  local.initial_literals = f.num_literals();

  const Cover offset = cubes::complement(f | dc);
  Cover g = f;
  g.remove_contained_cubes();
  int best_cost = -1;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++local.iterations;
    g = expand(g, offset);
    g = irredundant(g, dc);
    const int cost = g.size() * 1000 + g.num_literals();
    if (best_cost >= 0 && cost >= best_cost) break;
    best_cost = cost;
    if (options.single_pass) break;
    g = reduce(g, dc);
  }
  // Always finish on an expanded, irredundant cover.
  g = irredundant(expand(g, offset), dc);

  local.final_cubes = g.size();
  local.final_literals = g.num_literals();
  if (stats) *stats = local;
  if (obs::enabled()) {
    obs::count("espresso.minimize_calls");
    obs::count("espresso.iterations", local.iterations);
    obs::count("espresso.cubes_in", local.initial_cubes);
    obs::count("espresso.cubes_out", local.final_cubes);
    obs::observe("espresso.literals_saved",
                 std::max(0, local.initial_literals - local.final_literals));
  }
  return g;
}

Cover minimize(const Cover& f) {
  return minimize(f, Cover(f.num_vars()), MinimizeOptions{}, nullptr);
}

bool is_legal_implementation(const Cover& g, const Cover& f, const Cover& dc) {
  // Lower bound: every minterm of f not in dc must be covered by g.
  const Cover must = cubes::sharp(f, dc);
  for (const auto& c : must.cubes())
    if (!cubes::cover_contains_cube(g, c)) return false;
  // Upper bound: g must stay inside f | dc.
  const Cover allowed = f | dc;
  for (const auto& c : g.cubes())
    if (!cubes::cover_contains_cube(allowed, c)) return false;
  return true;
}

}  // namespace l2l::espresso
