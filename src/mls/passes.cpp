#include "mls/passes.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "cubes/urp.hpp"
#include "espresso/minimize.hpp"
#include "mls/kernels.hpp"
#include "mls/sop.hpp"
#include "network/bdd_build.hpp"
#include "util/strings.hpp"

namespace l2l::mls {

using network::Network;
using network::NodeId;
using network::NodeType;

namespace {

/// Is the node's function constant? Returns 0/1, or -1 if not constant.
int constant_value(const Network& net, NodeId id) {
  const auto& n = net.node(id);
  if (n.type != NodeType::kLogic) return -1;
  if (n.cover.empty()) return 0;
  for (const auto& c : n.cover.cubes())
    if (c.is_universal()) return 1;
  if (cubes::is_tautology(n.cover)) return 1;
  return -1;
}

/// If the node is a buffer/inverter (function == single literal), return
/// that literal; otherwise nullopt.
std::optional<GLit> as_single_literal(const Network& net, NodeId id) {
  const auto& n = net.node(id);
  if (n.type != NodeType::kLogic) return std::nullopt;
  const Sop s = sop_of_node(net, id);
  if (s.size() == 1 && s[0].size() == 1) return s[0][0];
  return std::nullopt;
}

/// Substitute a constant value for a signal inside an SOP.
Sop substitute_constant(const Sop& f, NodeId signal, bool value) {
  Sop out;
  for (const auto& t : f) {
    Term nt;
    bool dead = false;
    for (const GLit l : t) {
      if (glit_signal(l) != signal) {
        nt.push_back(l);
        continue;
      }
      const bool lit_value = glit_negated(l) ? !value : value;
      if (!lit_value) {
        dead = true;  // term contains a false literal
        break;
      }
      // true literal: drop it
    }
    if (!dead) out.push_back(std::move(nt));
  }
  return normalized(std::move(out));
}

/// Substitute literal `from` (and its complement) by literal `to` (phase-
/// adjusted) inside an SOP -- used for buffer/inverter absorption.
Sop substitute_literal(const Sop& f, NodeId signal, GLit target) {
  Sop out;
  for (const auto& t : f) {
    Term nt;
    for (const GLit l : t) {
      if (glit_signal(l) != signal) {
        nt.push_back(l);
      } else {
        // l = signal^phase; signal = target (a literal). So l becomes
        // target with phase XORed.
        const GLit repl = mk_glit(glit_signal(target),
                                  glit_negated(target) ^ glit_negated(l));
        nt.push_back(repl);
      }
    }
    std::sort(nt.begin(), nt.end());
    // x & x' may appear after substitution: detect and drop the term.
    bool contradictory = false;
    for (std::size_t i = 0; i + 1 < nt.size(); ++i)
      if (glit_signal(nt[i]) == glit_signal(nt[i + 1]) && nt[i] != nt[i + 1])
        contradictory = true;
    nt.erase(std::unique(nt.begin(), nt.end()), nt.end());
    if (!contradictory) out.push_back(std::move(nt));
  }
  return normalized(std::move(out));
}

/// Literals saved by rewriting f as q * x + r for an existing signal x
/// (every q term gains x's literal); the divisor's own cost is not
/// charged.
int rewrite_saving(const Sop& f, const Sop& q, const Sop& r) {
  return sop_literals(f) -
         (sop_literals(q) + static_cast<int>(q.size()) + sop_literals(r));
}

/// f rewritten as q * x + r for signal x.
Sop rewrite_with(NodeId x, const Sop& q, const Sop& r) {
  Sop rewritten = r;
  for (const auto& qt : q)
    rewritten.push_back(term_product(qt, Term{mk_glit(x, false)}));
  return normalized(std::move(rewritten));
}

/// Visit marks for walks over a node's transitive fan-in. A mark is a
/// generation stamp, so starting a new walk costs O(1), not a clear.
class ConeMarker {
 public:
  /// Mark the transitive fan-in of `root` (root included).
  void mark(const Network& net, NodeId root) { walk(net, root, network::kNoNode); }

  /// Was `id` marked by the last walk?
  bool marked(NodeId id) const {
    return stamp_[static_cast<std::size_t>(id)] == generation_;
  }

  /// Does the transitive fan-in of `root` (root included) contain
  /// `target`? The walk stops at the first hit.
  bool reaches(const Network& net, NodeId root, NodeId target) {
    return walk(net, root, target);
  }

 private:
  bool walk(const Network& net, NodeId root, NodeId stop) {
    stamp_.resize(static_cast<std::size_t>(net.num_nodes()), 0);
    if (++generation_ == 0) {  // wrapped: old stamps would alias
      std::fill(stamp_.begin(), stamp_.end(), 0);
      generation_ = 1;
    }
    stack_.assign(1, root);
    while (!stack_.empty()) {
      const NodeId n = stack_.back();
      stack_.pop_back();
      auto& stamp = stamp_[static_cast<std::size_t>(n)];
      if (stamp == generation_) continue;
      stamp = generation_;
      if (n == stop) return true;
      for (const NodeId f : net.node(n).fanins) stack_.push_back(f);
    }
    return false;
  }

  std::vector<std::uint32_t> stamp_;
  std::uint32_t generation_ = 0;
  std::vector<NodeId> stack_;
};

/// The SOP of a node's complement (via URP on its local cover), expressed
/// in global literals. nullopt when too wide to complement cheaply.
std::optional<Sop> complement_sop(const Network& net, NodeId id,
                                  int max_fanins = 10) {
  const auto& n = net.node(id);
  if (static_cast<int>(n.fanins.size()) > max_fanins) return std::nullopt;
  const auto comp = cubes::complement(n.cover);
  Sop out;
  for (const auto& cube : comp.cubes()) {
    Term t;
    for (int k = 0; k < static_cast<int>(n.fanins.size()); ++k) {
      const auto code = cube.code(k);
      if (code == cubes::Pcn::kDontCare) continue;
      t.push_back(mk_glit(n.fanins[static_cast<std::size_t>(k)],
                          code == cubes::Pcn::kNeg));
    }
    std::sort(t.begin(), t.end());
    out.push_back(std::move(t));
  }
  return normalized(std::move(out));
}

/// Substitute a full SOP (and its complement SOP) for a signal inside f.
/// Positive occurrences distribute `pos`; negative occurrences distribute
/// `neg`.
Sop substitute_sop(const Sop& f, NodeId signal, const Sop& pos, const Sop& neg) {
  Sop out;
  for (const auto& t : f) {
    // Split the term into the part without `signal` and the phases used.
    Term rest;
    bool uses_pos = false, uses_neg = false;
    for (const GLit l : t) {
      if (glit_signal(l) == signal) {
        (glit_negated(l) ? uses_neg : uses_pos) = true;
      } else {
        rest.push_back(l);
      }
    }
    if (!uses_pos && !uses_neg) {
      out.push_back(t);
      continue;
    }
    Sop expansion{rest};
    if (uses_pos) {
      Sop next;
      for (const auto& a : expansion)
        for (const auto& b : pos) next.push_back(term_product(a, b));
      expansion = std::move(next);
    }
    if (uses_neg) {
      Sop next;
      for (const auto& a : expansion)
        for (const auto& b : neg) next.push_back(term_product(a, b));
      expansion = std::move(next);
    }
    // Drop contradictory terms (x and x' in one product).
    for (auto& nt : expansion) {
      std::sort(nt.begin(), nt.end());
      bool contradictory = false;
      for (std::size_t i = 0; i + 1 < nt.size(); ++i)
        if (glit_signal(nt[i]) == glit_signal(nt[i + 1]) && nt[i] != nt[i + 1])
          contradictory = true;
      if (!contradictory) {
        nt.erase(std::unique(nt.begin(), nt.end()), nt.end());
        out.push_back(std::move(nt));
      }
    }
  }
  return normalized(std::move(out));
}

}  // namespace

int sweep(Network& net) {
  int removed = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    const auto fanouts = net.fanouts();
    for (NodeId id = 0; id < net.num_nodes(); ++id) {
      if (net.is_dead(id)) continue;
      const auto& n = net.node(id);
      if (n.type != NodeType::kLogic) continue;
      if (fanouts[static_cast<std::size_t>(id)].empty()) continue;

      const int cv = constant_value(net, id);
      const auto lit = cv < 0 ? as_single_literal(net, id) : std::nullopt;
      if (cv < 0 && !lit) continue;
      // Don't rewrite through primary outputs' driver itself; rewriting its
      // *fanouts* is always safe.
      for (const NodeId fo : fanouts[static_cast<std::size_t>(id)]) {
        if (net.is_dead(fo)) continue;
        Sop s = sop_of_node(net, fo);
        s = cv >= 0 ? substitute_constant(s, id, cv == 1)
                    : substitute_literal(s, id, *lit);
        set_node_sop(net, fo, s);
        changed = true;
      }
    }
  }
  removed += net.sweep_dangling();
  return removed;
}

int eliminate(Network& net, int threshold) {
  int eliminated = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    const auto fanouts = net.fanouts();
    // Output drivers cannot be eliminated (their name is the interface).
    std::set<NodeId> output_set(net.outputs().begin(), net.outputs().end());
    for (NodeId id = 0; id < net.num_nodes(); ++id) {
      if (net.is_dead(id) || output_set.count(id)) continue;
      const auto& n = net.node(id);
      if (n.type != NodeType::kLogic) continue;
      std::vector<NodeId> fos = fanouts[static_cast<std::size_t>(id)];
      std::sort(fos.begin(), fos.end());
      fos.erase(std::unique(fos.begin(), fos.end()), fos.end());
      if (fos.empty()) continue;

      const Sop pos = sop_of_node(net, id);
      const auto neg_opt = complement_sop(net, id);
      if (!neg_opt) continue;

      // Trial-rewrite all fanouts; compute the literal delta.
      int before = sop_literals(pos);
      int after = 0;
      std::vector<std::pair<NodeId, Sop>> rewrites;
      bool feasible = true;
      for (const NodeId fo : fos) {
        if (net.is_dead(fo)) continue;
        const Sop s = sop_of_node(net, fo);
        const Sop ns = substitute_sop(s, id, pos, *neg_opt);
        // Guard against blowup.
        if (sop_literals(ns) > 4 * (sop_literals(s) + before) + 16) {
          feasible = false;
          break;
        }
        before += sop_literals(s);
        after += sop_literals(ns);
        rewrites.emplace_back(fo, ns);
      }
      if (!feasible || after - before > threshold) continue;
      for (auto& [fo, s] : rewrites) set_node_sop(net, fo, s);
      changed = true;
      ++eliminated;
    }
    net.sweep_dangling();
  }
  return eliminated;
}

namespace {

int g_extract_counter = 0;

std::string fresh_name(const Network& net, const char* prefix) {
  for (;;) {
    auto name = util::format("%s%d", prefix, g_extract_counter++);
    if (!net.find(name)) return name;
  }
}

}  // namespace

int extract_kernels(Network& net, int max_new_nodes) {
  int created = 0;
  ConeMarker cone;
  while (created < max_new_nodes) {
    // Gather kernels from every logic node. Per-node saving excludes the
    // divisor's own literal cost, which is paid exactly once on extraction.
    std::map<Sop, int> saving;  // canonical kernel -> sum of per-node savings
    std::vector<NodeId> logic_nodes;
    for (NodeId id = 0; id < net.num_nodes(); ++id) {
      if (net.is_dead(id) || net.node(id).type != NodeType::kLogic) continue;
      logic_nodes.push_back(id);
      const Sop f = sop_of_node(net, id);
      if (f.size() < 2) continue;
      for (const auto& k : all_kernels(f)) {
        if (k.kernel.size() < 2) continue;
        const auto [q, r] = divide(f, k.kernel);
        if (q.empty()) continue;
        const int s = rewrite_saving(f, q, r);
        if (s > 0) saving[k.kernel] += s;
      }
    }
    const Sop* best = nullptr;
    int best_value = 0;
    for (const auto& [k, s] : saving) {
      const int v = s - sop_literals(k);  // divisor built once
      if (v > best_value) {
        best = &k;
        best_value = v;
      }
    }
    if (!best || best_value <= 0) break;

    // Materialize the kernel as a new node.
    Network& n = net;
    const auto name = fresh_name(n, "ker_");
    const NodeId knode = n.add_logic(name, {}, cubes::Cover(0));
    set_node_sop(n, knode, *best);
    ++created;

    // Divide it into every node that benefits (skip its own fanin cone to
    // stay acyclic).
    cone.mark(net, knode);
    for (const NodeId id : logic_nodes) {
      if (cone.marked(id)) continue;
      const Sop f = sop_of_node(net, id);
      const auto [q, r] = divide(f, *best);
      if (q.empty() || rewrite_saving(f, q, r) <= 0) continue;
      set_node_sop(net, id, rewrite_with(knode, q, r));
    }
  }
  net.sweep_dangling();
  return created;
}

int extract_cubes(Network& net, int max_new_nodes) {
  int created = 0;
  ConeMarker cone;
  while (created < max_new_nodes) {
    // Candidate cubes: pairwise term intersections of size >= 2.
    std::map<Term, int> occurrences;
    std::vector<std::pair<NodeId, Sop>> sops;
    for (NodeId id = 0; id < net.num_nodes(); ++id) {
      if (net.is_dead(id) || net.node(id).type != NodeType::kLogic) continue;
      sops.emplace_back(id, sop_of_node(net, id));
    }
    std::set<Term> candidates;
    std::vector<Term> all_terms;
    for (const auto& [id, f] : sops)
      for (const auto& t : f)
        if (t.size() >= 2) all_terms.push_back(t);
    for (std::size_t i = 0; i < all_terms.size(); ++i)
      for (std::size_t j = i + 1; j < all_terms.size(); ++j) {
        Term c;
        std::set_intersection(all_terms[i].begin(), all_terms[i].end(),
                              all_terms[j].begin(), all_terms[j].end(),
                              std::back_inserter(c));
        if (c.size() >= 2) candidates.insert(std::move(c));
      }
    for (const auto& t : all_terms)
      for (const auto& c : candidates)
        if (term_contains(t, c))
          ++occurrences[c];
    const Term* best = nullptr;
    int best_value = 0;
    for (const auto& [c, occ] : occurrences) {
      // Replacing |c| literals by 1 in occ terms; new node costs |c|.
      const int v = occ * (static_cast<int>(c.size()) - 1) -
                    static_cast<int>(c.size());
      if (v > best_value) {
        best = &c;
        best_value = v;
      }
    }
    if (!best || best_value <= 0) break;

    const auto name = fresh_name(net, "cub_");
    const NodeId cnode = net.add_logic(name, {}, cubes::Cover(0));
    set_node_sop(net, cnode, Sop{*best});
    ++created;

    cone.mark(net, cnode);
    for (const auto& [id, f] : sops) {
      if (cone.marked(id)) continue;
      bool touched = false;
      Sop rewritten;
      for (const auto& t : f) {
        if (term_contains(t, *best)) {
          Term nt = term_quotient(t, *best);
          nt = term_product(nt, Term{mk_glit(cnode, false)});
          rewritten.push_back(std::move(nt));
          touched = true;
        } else {
          rewritten.push_back(t);
        }
      }
      if (touched) set_node_sop(net, id, normalized(std::move(rewritten)));
    }
  }
  net.sweep_dangling();
  return created;
}

int resubstitute(Network& net) {
  int substitutions = 0;
  // Every node's SOP, read once; only a rewritten target's changes.
  std::vector<NodeId> logic_nodes;
  std::vector<Sop> sops(static_cast<std::size_t>(net.num_nodes()));
  for (NodeId id = 0; id < net.num_nodes(); ++id)
    if (!net.is_dead(id) && net.node(id).type == NodeType::kLogic) {
      logic_nodes.push_back(id);
      sops[static_cast<std::size_t>(id)] = sop_of_node(net, id);
    }

  ConeMarker cone;
  for (const NodeId target : logic_nodes) {
    if (net.is_dead(target)) continue;
    Sop& f = sops[static_cast<std::size_t>(target)];
    for (const NodeId divisor : logic_nodes) {
      if (divisor == target || net.is_dead(divisor)) continue;
      const Sop& d = sops[static_cast<std::size_t>(divisor)];
      if (d.empty() || d.size() >= f.size()) continue;
      const auto [q, r] = divide(f, d);
      if (q.empty() || rewrite_saving(f, q, r) <= 0) continue;
      // Acyclicity: divisor's cone must not contain target.
      if (cone.reaches(net, divisor, target)) continue;
      set_node_sop(net, target, rewrite_with(divisor, q, r));
      f = sop_of_node(net, target);
      ++substitutions;
    }
  }
  net.sweep_dangling();
  return substitutions;
}

int simplify_nodes(Network& net) {
  int saved = 0;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (net.is_dead(id) || net.node(id).type != NodeType::kLogic) continue;
    auto& n = net.node(id);
    if (n.fanins.empty()) continue;
    const int before = n.cover.num_literals();
    auto minimized = espresso::minimize(n.cover);
    if (minimized.num_literals() < before) {
      saved += before - minimized.num_literals();
      net.set_function(id, n.fanins, std::move(minimized));
    }
  }
  return saved;
}

int simplify_with_sdc(Network& net, int max_fanins, int max_inputs) {
  if (static_cast<int>(net.inputs().size()) > max_inputs) return 0;
  bdd::Manager mgr(static_cast<int>(net.inputs().size()));
  const auto bdds = network::build_bdds(net, mgr);

  int saved = 0;
  for (NodeId id = 0; id < net.num_nodes(); ++id) {
    if (net.is_dead(id) || net.node(id).type != NodeType::kLogic) continue;
    const auto& n = net.node(id);
    const int arity = static_cast<int>(n.fanins.size());
    if (arity == 0 || arity > max_fanins) continue;

    // SDC: fanin-space minterms that no primary-input assignment produces.
    cubes::Cover dc(arity);
    for (std::uint64_t m = 0; m < (1ull << arity); ++m) {
      bdd::Bdd feasible = mgr.one();
      for (int k = 0; k < arity && !feasible.is_zero(); ++k) {
        const auto& fk = bdds.node[static_cast<std::size_t>(n.fanins[static_cast<std::size_t>(k)])];
        feasible = feasible & (((m >> k) & 1) ? fk : !fk);
      }
      if (feasible.is_zero()) {
        cubes::Cube c(arity);
        for (int k = 0; k < arity; ++k)
          c.set_code(k, ((m >> k) & 1) ? cubes::Pcn::kPos : cubes::Pcn::kNeg);
        dc.add(std::move(c));
      }
    }
    if (dc.empty()) {
      const int before = n.cover.num_literals();
      auto minimized = espresso::minimize(n.cover);
      if (minimized.num_literals() < before) {
        saved += before - minimized.num_literals();
        net.set_function(id, n.fanins, std::move(minimized));
      }
      continue;
    }
    const int before = n.cover.num_literals();
    auto minimized = espresso::minimize(n.cover, dc);
    if (minimized.num_literals() < before) {
      saved += before - minimized.num_literals();
      net.set_function(id, n.fanins, std::move(minimized));
    }
  }
  return saved;
}

}  // namespace l2l::mls
