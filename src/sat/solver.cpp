#include "sat/solver.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace l2l::sat {

namespace {

// Flushes the delta of the solver's local SolverStats to the metrics
// registry on every exit path of solve() (normal, conflict-limit, budget).
// The inner loops only touch stats_; obs sees one batched update per call.
class SolveMetricsFlusher {
 public:
  SolveMetricsFlusher(const SolverStats& stats)
      : stats_(obs::enabled() ? &stats : nullptr),
        base_(stats),
        span_("sat.solve") {}
  ~SolveMetricsFlusher() {
    if (stats_ == nullptr) return;
    obs::count("sat.solve_calls");
    obs::count("sat.decisions", stats_->decisions - base_.decisions);
    obs::count("sat.propagations", stats_->propagations - base_.propagations);
    obs::count("sat.conflicts", stats_->conflicts - base_.conflicts);
    obs::count("sat.restarts", stats_->restarts - base_.restarts);
    obs::count("sat.learnt_clauses",
               stats_->learnt_clauses - base_.learnt_clauses);
    obs::count("sat.db_reductions",
               stats_->db_reductions - base_.db_reductions);
    obs::observe("sat.conflicts_per_solve",
                 stats_->conflicts - base_.conflicts);
  }

 private:
  const SolverStats* stats_;  // null when collection is disabled
  SolverStats base_;
  obs::ScopedSpan span_;
};

}  // namespace

std::int64_t luby(std::int64_t i) {
  // Find the finite subsequence containing index i and its position.
  std::int64_t size = 1, seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  return 1ll << seq;
}

Solver::Solver(SolverOptions options) : options_(options) {}
Solver::~Solver() = default;

Var Solver::new_var() {
  const Var v = num_vars();
  reserve_vars(v + 1);
  return v;
}

void Solver::reserve_vars(int n) {
  const Var first = num_vars();
  if (n <= first) return;
  const auto size = static_cast<std::size_t>(n);
  assigns_.resize(size, LBool::kUndef);
  polarity_.resize(size, true);
  activity_.resize(size, 0.0);
  reason_.resize(size, kInvalidClauseRef);
  level_.resize(size, 0);
  seen_.resize(size, 0);
  heap_pos_.resize(size, -1);
  watches_.resize(2 * size);  // one list per literal
  for (Var v = first; v < n; ++v) heap_insert(v);
}

void Solver::reserve_clauses(std::int64_t total_lits,
                             std::int64_t num_clauses) {
  arena_.reserve(static_cast<std::size_t>(total_lits + num_clauses));
  clauses_.reserve(static_cast<std::size_t>(num_clauses));
}

bool Solver::add_clause(std::span<const Lit> lits) {
  if (!ok_) return false;
  if (decision_level() != 0)
    throw std::logic_error("Solver::add_clause: only legal at level 0");
  for (const Lit p : lits)
    if (p.var() < 0 || p.var() >= num_vars())
      throw std::invalid_argument("Solver::add_clause: unknown variable");

  // Sort a copy, then keep its first `kept` literals in place.
  auto& buf = add_buf_;
  buf.assign(lits.begin(), lits.end());
  std::sort(buf.begin(), buf.end());
  std::size_t kept = 0;
  Lit prev;
  for (const Lit p : buf) {
    if (value(p) == LBool::kTrue) return true;      // satisfied at level 0
    if (p == ~prev) return true;                    // tautology (x | ~x)
    if (p == prev || value(p) == LBool::kFalse) continue;  // dup / false
    buf[kept++] = p;
    prev = p;
  }

  if (kept == 0) {
    ok_ = false;
    return false;
  }
  if (kept == 1) {
    if (!enqueue(buf[0], kInvalidClauseRef)) ok_ = false;
    if (ok_ && propagate() != kInvalidClauseRef) ok_ = false;
    return ok_;
  }
  const ClauseRef c = arena_.alloc(buf.data(), static_cast<int>(kept), false);
  attach_clause(c);
  clauses_.push_back(c);
  return true;
}

void Solver::attach_clause(ClauseRef c) {
  const Lit l0 = arena_.lit(c, 0);
  const Lit l1 = arena_.lit(c, 1);
  // Each watch carries the other watched literal as its initial blocker.
  watches_[static_cast<std::size_t>(l0.index())].push_back({c, l1});
  watches_[static_cast<std::size_t>(l1.index())].push_back({c, l0});
}

void Solver::detach_clause(ClauseRef c) {
  for (int k = 0; k < 2; ++k) {
    auto& ws = watches_[static_cast<std::size_t>(arena_.lit(c, k).index())];
    ws.erase(std::find_if(ws.begin(), ws.end(),
                          [c](const Watcher& w) { return w.cref == c; }));
  }
}

bool Solver::enqueue(Lit p, ClauseRef reason) {
  if (value(p) != LBool::kUndef) return value(p) == LBool::kTrue;
  const auto v = static_cast<std::size_t>(p.var());
  assigns_[v] = lbool_from(!p.sign());
  level_[v] = decision_level();
  reason_[v] = reason;
  trail_.push_back(p);
  return true;
}

ClauseRef Solver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    const Lit false_lit = ~p;
    // MiniSat's i/j walk: i reads every watcher, j writes back the ones
    // that stay. A migrated watch goes to another literal's list, never
    // this one (its literal is not false), so the pointers stay valid.
    auto& ws = watches_[static_cast<std::size_t>(false_lit.index())];
    Watcher* i = ws.data();
    Watcher* j = i;
    Watcher* const end = i + ws.size();
    while (i != end) {
      const Watcher w = *i++;
      // Fast path: the blocker is true, the clause is satisfied -- skip it
      // without touching the clause body at all.
      if (value(w.blocker) == LBool::kTrue) {
        *j++ = w;
        continue;
      }
      const ClauseRef c = w.cref;
      // Put the falsified literal at position 1.
      if (arena_.lit(c, 0) == false_lit) {
        arena_.set_lit(c, 0, arena_.lit(c, 1));
        arena_.set_lit(c, 1, false_lit);
      }
      const Lit first = arena_.lit(c, 0);
      const Watcher keep{c, first};
      if (first != w.blocker && value(first) == LBool::kTrue) {
        *j++ = keep;  // clause already satisfied
        continue;
      }
      // Look for a non-false literal to watch instead.
      bool moved = false;
      const int size = arena_.size(c);
      for (int k = 2; k < size; ++k) {
        const Lit lk = arena_.lit(c, k);
        if (value(lk) != LBool::kFalse) {
          arena_.set_lit(c, 1, lk);
          arena_.set_lit(c, k, false_lit);
          watches_[static_cast<std::size_t>(lk.index())].push_back(
              {c, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;  // watch migrated; drop from this list
      *j++ = keep;
      if (value(first) == LBool::kFalse) {
        // Conflict: compact the list and halt propagation.
        while (i != end) *j++ = *i++;
        ws.resize(static_cast<std::size_t>(j - ws.data()));
        qhead_ = trail_.size();
        return c;
      }
      enqueue(first, c);  // unit propagation
    }
    ws.resize(static_cast<std::size_t>(j - ws.data()));
  }
  return kInvalidClauseRef;
}

int Solver::analyze(ClauseRef conflict) {
  std::vector<Lit>& out_learnt = learnt_;
  out_learnt.clear();
  out_learnt.push_back(Lit());  // slot for the asserting literal
  int path_count = 0;
  Lit p;
  std::size_t index = trail_.size();

  ClauseRef c = conflict;
  do {
    bump_clause(c);
    const int size = arena_.size(c);
    for (int n = 0; n < size; ++n) {
      const Lit q = arena_.lit(c, n);
      if (q == p) continue;  // skip the resolved-on literal
      const auto v = static_cast<std::size_t>(q.var());
      if (!seen_[v] && level_[v] > 0) {
        seen_[v] = 1;
        bump_var(q.var());
        if (level_[v] >= decision_level())
          ++path_count;
        else
          out_learnt.push_back(q);
      }
    }
    // Next trail literal that participates in the conflict.
    while (!seen_[static_cast<std::size_t>(trail_[index - 1].var())]) --index;
    p = trail_[--index];
    c = reason_[static_cast<std::size_t>(p.var())];
    seen_[static_cast<std::size_t>(p.var())] = 0;
    --path_count;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Basic (non-recursive) learnt-clause minimization: drop a literal when
  // its reason clause is entirely subsumed by the rest of the learnt.
  to_clear_.clear();
  for (const Lit q : out_learnt) to_clear_.push_back(q.var());
  std::size_t kept = 1;
  for (std::size_t n = 1; n < out_learnt.size(); ++n) {
    const Lit q = out_learnt[n];
    const ClauseRef r = reason_[static_cast<std::size_t>(q.var())];
    bool redundant = r != kInvalidClauseRef;
    if (r != kInvalidClauseRef) {
      const int rsize = arena_.size(r);
      for (int k = 0; k < rsize; ++k) {
        const Lit x = arena_.lit(r, k);
        if (x.var() == q.var()) continue;
        const auto xv = static_cast<std::size_t>(x.var());
        if (!seen_[xv] && level_[xv] > 0) {
          redundant = false;
          break;
        }
      }
    }
    if (!redundant) out_learnt[kept++] = q;
  }
  for (const Var v : to_clear_) seen_[static_cast<std::size_t>(v)] = 0;
  out_learnt.resize(kept);

  // Compute the backtrack level: highest level among the non-asserting
  // literals, and move that literal to the second watch position.
  if (out_learnt.size() == 1) return 0;
  std::size_t max_i = 1;
  for (std::size_t n = 2; n < out_learnt.size(); ++n)
    if (level_[static_cast<std::size_t>(out_learnt[n].var())] >
        level_[static_cast<std::size_t>(out_learnt[max_i].var())])
      max_i = n;
  std::swap(out_learnt[1], out_learnt[max_i]);
  return level_[static_cast<std::size_t>(out_learnt[1].var())];
}

void Solver::backtrack(int target_level) {
  if (decision_level() <= target_level) return;
  const auto bound = static_cast<std::size_t>(trail_lim_[static_cast<std::size_t>(target_level)]);
  for (std::size_t k = trail_.size(); k > bound; --k) {
    const Lit p = trail_[k - 1];
    const auto v = static_cast<std::size_t>(p.var());
    assigns_[v] = LBool::kUndef;
    reason_[v] = kInvalidClauseRef;
    if (options_.use_phase_saving) polarity_[v] = p.sign();
    if (heap_pos_[v] < 0) heap_insert(p.var());
  }
  trail_.resize(bound);
  trail_lim_.resize(static_cast<std::size_t>(target_level));
  qhead_ = trail_.size();
}

Lit Solver::pick_branch_lit() {
  Var next = -1;
  if (options_.use_vsids) {
    while (!heap_empty()) {
      const Var v = heap_pop();
      if (value(v) == LBool::kUndef) {
        next = v;
        break;
      }
    }
  } else {
    for (Var v = 0; v < num_vars(); ++v)
      if (value(v) == LBool::kUndef) {
        next = v;
        break;
      }
  }
  if (next < 0) return Lit();  // all assigned
  return Lit(next, polarity_[static_cast<std::size_t>(next)]);
}

void Solver::bump_var(Var v) {
  auto& a = activity_[static_cast<std::size_t>(v)];
  a += var_inc_;
  if (a > 1e100) {
    for (auto& x : activity_) x *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[static_cast<std::size_t>(v)] >= 0) heap_update(v);
}

void Solver::decay_var_activity() { var_inc_ /= options_.var_decay; }

void Solver::bump_clause(ClauseRef c) {
  if (!arena_.learnt(c)) return;
  const double a = arena_.activity(c) + clause_inc_;
  arena_.set_activity(c, a);
  if (a > 1e20) {
    for (const ClauseRef cl : learnts_)
      arena_.set_activity(cl, arena_.activity(cl) * 1e-20);
    clause_inc_ *= 1e-20;
  }
}

void Solver::decay_clause_activity() { clause_inc_ /= options_.clause_decay; }

void Solver::reduce_db() {
  ++stats_.db_reductions;
  std::sort(learnts_.begin(), learnts_.end(),
            [this](ClauseRef a, ClauseRef b) {
              return arena_.activity(a) < arena_.activity(b);
            });
  auto locked = [&](ClauseRef c) {
    const Lit first = arena_.lit(c, 0);
    return value(first) == LBool::kTrue &&
           reason_[static_cast<std::size_t>(first.var())] == c;
  };
  std::vector<ClauseRef> kept;
  kept.reserve(learnts_.size());
  const std::size_t drop_target = learnts_.size() / 2;
  std::size_t dropped = 0;
  for (const ClauseRef c : learnts_) {
    if (dropped < drop_target && arena_.size(c) > 2 && !locked(c)) {
      detach_clause(c);
      arena_.free(c);
      ++dropped;
    } else {
      kept.push_back(c);
    }
  }
  learnts_ = std::move(kept);
  // Compact once a fifth of the arena is dead clause bodies.
  if (arena_.wasted_words() > arena_.used_words() / 5) compact_arena();
}

void Solver::compact_arena() {
  ++stats_.arena_compactions;
  ClauseArena to;
  to.reserve(arena_.used_words() - arena_.wasted_words());
  // Live clauses move in deterministic order (problem clauses, then
  // learnts); watches and reasons then resolve through forwarding refs.
  for (ClauseRef& c : clauses_) c = arena_.reloc(c, to);
  for (ClauseRef& c : learnts_) c = arena_.reloc(c, to);
  for (auto& ws : watches_)
    for (Watcher& w : ws) w.cref = arena_.reloc(w.cref, to);
  for (ClauseRef& r : reason_)
    if (r != kInvalidClauseRef) r = arena_.reloc(r, to);
  arena_ = std::move(to);
}

void Solver::rebuild_order_heap() {
  heap_.clear();
  std::fill(heap_pos_.begin(), heap_pos_.end(), -1);
  for (Var v = 0; v < num_vars(); ++v)
    if (value(v) == LBool::kUndef) heap_insert(v);
}

LBool Solver::solve() { return solve({}); }

LBool Solver::solve(const std::vector<Lit>& assumptions) {
  SolveMetricsFlusher metrics(stats_);
  model_.clear();
  stop_reason_ = util::Status::okay();
  if (!ok_) return LBool::kFalse;
  rebuild_order_heap();

  std::int64_t conflicts_since_restart = 0;
  std::int64_t restart_limit =
      options_.restart_base * luby(stats_.restarts);
  const std::int64_t conflict_budget =
      options_.conflict_limit < 0
          ? -1
          : stats_.conflicts + options_.conflict_limit;
  const util::Budget* budget = options_.budget;
  // Propagations already charged to the budget; the delta is consumed at
  // each conflict so the stop point is a deterministic conflict boundary.
  std::int64_t charged_props = stats_.propagations;
  if (budget && budget->exhausted()) {
    stop_reason_ = budget->status();
    return LBool::kUndef;
  }

  LBool result = LBool::kUndef;
  while (result == LBool::kUndef) {
    const ClauseRef conflict = propagate();
    if (conflict != kInvalidClauseRef) {
      ++stats_.conflicts;
      ++conflicts_since_restart;
      if (decision_level() == 0) {
        ok_ = false;
        result = LBool::kFalse;
        break;
      }
      backtrack(analyze(conflict));
      if (learnt_.size() == 1) {
        enqueue(learnt_[0], kInvalidClauseRef);
      } else {
        const ClauseRef c = arena_.alloc(
            learnt_.data(), static_cast<int>(learnt_.size()), true);
        arena_.set_activity(c, clause_inc_);
        attach_clause(c);
        enqueue(arena_.lit(c, 0), c);
        stats_.learnt_literals += arena_.size(c);
        learnts_.push_back(c);
        ++stats_.learnt_clauses;
      }
      decay_var_activity();
      decay_clause_activity();
      if (learnts_.size() >= max_learnts_) {
        reduce_db();
        max_learnts_ = max_learnts_ + max_learnts_ / 2;
      }
      if (conflict_budget >= 0 && stats_.conflicts >= conflict_budget) {
        stop_reason_ = util::Status::budget("conflict limit reached");
        backtrack(0);
        return LBool::kUndef;
      }
      if (budget) {
        const bool steps_ok = budget->consume(stats_.propagations - charged_props);
        charged_props = stats_.propagations;
        if (!steps_ok || budget->exhausted()) {
          stop_reason_ = budget->status();
          if (stop_reason_.ok())  // consume() crossed the limit this call
            stop_reason_ = util::Status::budget("propagation budget exhausted");
          backtrack(0);
          return LBool::kUndef;
        }
      }
    } else {
      if (options_.use_restarts && conflicts_since_restart >= restart_limit) {
        ++stats_.restarts;
        conflicts_since_restart = 0;
        restart_limit = options_.restart_base * luby(stats_.restarts);
        backtrack(0);
        continue;
      }
      // Extend with assumptions first, then a free decision.
      Lit next;
      bool next_set = false;
      while (decision_level() < static_cast<int>(assumptions.size())) {
        const Lit p = assumptions[static_cast<std::size_t>(decision_level())];
        if (value(p) == LBool::kTrue) {
          trail_lim_.push_back(static_cast<int>(trail_.size()));  // dummy level
        } else if (value(p) == LBool::kFalse) {
          result = LBool::kFalse;  // assumptions contradict the formula
          break;
        } else {
          next = p;
          next_set = true;
          break;
        }
      }
      if (result != LBool::kUndef) break;
      if (!next_set) {
        next = pick_branch_lit();
        if (next.x < 0) {
          // Complete assignment: record the model.
          model_ = assigns_;
          result = LBool::kTrue;
          break;
        }
        ++stats_.decisions;
      }
      trail_lim_.push_back(static_cast<int>(trail_.size()));
      enqueue(next, kInvalidClauseRef);
    }
  }
  backtrack(0);
  return result;
}

bool Solver::model_satisfies_formula() const {
  if (model_.empty()) return false;
  for (const ClauseRef c : clauses_) {
    bool sat = false;
    const int size = arena_.size(c);
    for (int k = 0; k < size; ++k) {
      const Lit p = arena_.lit(c, k);
      const LBool v = model_[static_cast<std::size_t>(p.var())] ^ p.sign();
      if (v == LBool::kTrue) {
        sat = true;
        break;
      }
    }
    if (!sat) return false;
  }
  return true;
}

// ---- order heap ---------------------------------------------------------

void Solver::heap_insert(Var v) {
  heap_pos_[static_cast<std::size_t>(v)] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_up(static_cast<int>(heap_.size()) - 1);
}

void Solver::heap_update(Var v) {
  const int i = heap_pos_[static_cast<std::size_t>(v)];
  heap_up(i);
  heap_down(i);
}

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_pos_[static_cast<std::size_t>(top)] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[static_cast<std::size_t>(heap_[0])] = 0;
    heap_down(0);
  }
  return top;
}

void Solver::heap_up(int i) {
  const Var v = heap_[static_cast<std::size_t>(i)];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (!heap_less(heap_[static_cast<std::size_t>(parent)], v)) break;
    heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(parent)];
    heap_pos_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(i)])] = i;
    i = parent;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_pos_[static_cast<std::size_t>(v)] = i;
}

void Solver::heap_down(int i) {
  const Var v = heap_[static_cast<std::size_t>(i)];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_less(heap_[static_cast<std::size_t>(child)],
                                   heap_[static_cast<std::size_t>(child + 1)]))
      ++child;
    if (!heap_less(v, heap_[static_cast<std::size_t>(child)])) break;
    heap_[static_cast<std::size_t>(i)] = heap_[static_cast<std::size_t>(child)];
    heap_pos_[static_cast<std::size_t>(heap_[static_cast<std::size_t>(i)])] = i;
    i = child;
  }
  heap_[static_cast<std::size_t>(i)] = v;
  heap_pos_[static_cast<std::size_t>(v)] = i;
}

}  // namespace l2l::sat
