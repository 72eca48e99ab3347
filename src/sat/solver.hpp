#pragma once
// A conflict-driven clause-learning (CDCL) SAT solver in the style of
// MiniSat [8] -- the engine the MOOC deployed as a cloud tool portal.
//
// Features: two-watched-literal propagation with blocker literals, VSIDS
// decision heuristic with phase saving, first-UIP conflict analysis with
// basic (non-recursive) learnt-clause minimization -- a literal goes when
// its reason's other literals are all in the clause -- Luby-sequence
// restarts, and activity-driven learnt-clause database reduction. VSIDS
// and restarts can be disabled individually -- the perf bench uses this
// as an ablation.
//
// Clause storage is a contiguous uint32 arena (sat/types.hpp): watcher
// lists and reason slots hold 32-bit ClauseRefs, and the arena is
// compacted after learnt-clause reduction once a fifth of it is garbage.

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <vector>

#include "sat/types.hpp"
#include "util/budget.hpp"

namespace l2l::sat {

struct SolverOptions {
  bool use_vsids = true;     ///< false: pick the lowest-index unassigned var
  bool use_restarts = true;  ///< false: never restart
  bool use_phase_saving = true;
  double var_decay = 0.95;
  double clause_decay = 0.999;
  int restart_base = 100;        ///< conflicts per Luby unit
  std::int64_t conflict_limit = -1;  ///< -1 = no limit (solve returns kUndef)
  /// Optional resource guard (not owned; must outlive solve()). Consumes
  /// one budget step per propagation, checked at conflict boundaries so a
  /// step-limited run stops at a deterministic point; the deadline and
  /// cancellation token are polled there too. Exhaustion returns kUndef
  /// with stop_reason() explaining why.
  const util::Budget* budget = nullptr;
};

struct SolverStats {
  std::int64_t decisions = 0;
  std::int64_t propagations = 0;
  std::int64_t conflicts = 0;
  std::int64_t restarts = 0;
  std::int64_t learnt_clauses = 0;
  std::int64_t learnt_literals = 0;
  std::int64_t db_reductions = 0;
  std::int64_t arena_compactions = 0;
};

class Solver {
 public:
  explicit Solver(SolverOptions options = {});
  ~Solver();

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  /// Create a fresh variable; returns its index.
  Var new_var();
  int num_vars() const { return static_cast<int>(assigns_.size()); }

  /// Ensure variables [0, n) exist: each per-variable array is resized
  /// once, not grown a variable at a time.
  void reserve_vars(int n);

  /// Size the clause arena for a known ingestion (e.g. a parsed DIMACS
  /// file): `total_lits` literals spread over `num_clauses` clauses means
  /// at most one arena word per literal plus one header word per clause.
  void reserve_clauses(std::int64_t total_lits, std::int64_t num_clauses);

  /// Add a clause (OR of literals). Returns false if the formula is already
  /// unsatisfiable at level 0 (e.g. an empty clause was derived). The
  /// literals are sorted and filtered in a member buffer; `lits` is only
  /// read.
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }
  bool add_unit(Lit p) { return add_clause({p}); }

  int num_clauses() const { return static_cast<int>(clauses_.size()); }

  /// Solve the formula. kTrue = SAT, kFalse = UNSAT, kUndef = conflict
  /// limit hit.
  LBool solve();

  /// Solve under assumptions (temporary unit decisions). The solver state
  /// remains usable afterwards, enabling incremental queries.
  LBool solve(const std::vector<Lit>& assumptions);

  /// After solve() == kTrue: the value of each variable.
  const std::vector<LBool>& model() const { return model_; }
  bool model_value(Var v) const { return model_[static_cast<std::size_t>(v)] == LBool::kTrue; }

  /// Check a model against every original clause (test/debug aid).
  bool model_satisfies_formula() const;

  const SolverStats& stats() const { return stats_; }
  const SolverOptions& options() const { return options_; }

  /// Why the last solve() returned kUndef (kOk after kTrue/kFalse):
  /// kBudgetExceeded (conflict limit or budget steps), kTimeout, or
  /// kCancelled.
  const util::Status& stop_reason() const { return stop_reason_; }

 private:
  LBool value(Lit p) const {
    return assigns_[static_cast<std::size_t>(p.var())] ^ p.sign();
  }
  LBool value(Var v) const { return assigns_[static_cast<std::size_t>(v)]; }
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }

  void attach_clause(ClauseRef c);
  void detach_clause(ClauseRef c);
  bool enqueue(Lit p, ClauseRef reason);
  ClauseRef propagate();
  /// First-UIP analysis of `conflict` into learnt_ (asserting literal
  /// first); returns the backtrack level.
  int analyze(ClauseRef conflict);
  void backtrack(int level);
  Lit pick_branch_lit();
  void bump_var(Var v);
  void decay_var_activity();
  void bump_clause(ClauseRef c);
  void decay_clause_activity();
  void reduce_db();
  void compact_arena();
  void rebuild_order_heap();

  // Order heap (max-heap on activity) -------------------------------
  void heap_insert(Var v);
  void heap_update(Var v);
  Var heap_pop();
  bool heap_empty() const { return heap_.empty(); }
  void heap_up(int i);
  void heap_down(int i);
  bool heap_less(Var a, Var b) const {
    return activity_[static_cast<std::size_t>(a)] < activity_[static_cast<std::size_t>(b)];
  }

  SolverOptions options_;
  SolverStats stats_;
  util::Status stop_reason_;

  ClauseArena arena_;
  std::vector<ClauseRef> clauses_;
  std::vector<ClauseRef> learnts_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::index()

  std::vector<LBool> assigns_;
  std::vector<bool> polarity_;      // saved phase (true = last was negated)
  std::vector<double> activity_;
  std::vector<ClauseRef> reason_;   // kInvalidClauseRef = decision / none
  std::vector<int> level_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<int> heap_;       // heap of vars
  std::vector<int> heap_pos_;   // var -> position in heap_ or -1

  std::vector<LBool> model_;
  // Scratch reused across calls: add_clause's sorted copy, analyze()'s
  // learnt clause and the variables it marked seen.
  std::vector<Lit> add_buf_;
  std::vector<Lit> learnt_;
  std::vector<Var> to_clear_;
  std::vector<char> seen_;

  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  bool ok_ = true;  // false once UNSAT at level 0
  std::size_t max_learnts_ = 4096;
};

/// The Luby restart sequence: 1,1,2,1,1,2,4,...
std::int64_t luby(std::int64_t i);

}  // namespace l2l::sat
