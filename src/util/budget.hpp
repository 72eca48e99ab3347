#pragma once
// Resource guards for the long-running engines: a Budget bundles an
// optional wall-clock deadline, an optional step budget, and an optional
// cooperative CancelToken. Every engine that can spin unbounded (SAT,
// BDD construction, negotiated routing, CG placement, the full flow)
// accepts a `const Budget*` and terminates cleanly -- partial result plus
// a Status -- instead of hanging on adversarial input.
//
// Determinism contract: step budgets are consumed at deterministic
// algorithmic boundaries (SAT conflicts, BDD node creations, router
// negotiation iterations, placer region solves), never per wall-clock
// tick, so a Budget with only a step limit yields bit-identical results
// at any L2L_THREADS value. Deadlines and cancellation are inherently
// racy; a run that trips them must be treated as abandoned, not graded.
//
// The engine-by-engine step units:
//   sat::Solver        1 step per propagation (checked at conflicts)
//   bdd::Manager       1 step per freshly allocated node
//   route::route_all   1 step per negotiation iteration
//   place_quadratic    1 step per region solved
//   flow::run_flow     passes the budget through to the stages above

#include <chrono>
#include <cstdint>
#include <memory>

#include "util/parallel.hpp"
#include "util/status.hpp"

namespace l2l::util {

class Budget {
 public:
  /// Default construction = unlimited (no deadline, no limit, no token).
  Budget();

  /// Movable (the factories below return by value) but not copyable:
  /// two budgets silently sharing a step count would be a bug. Moving a
  /// budget that engines are concurrently consuming is undefined.
  Budget(Budget&& other) noexcept;
  Budget& operator=(Budget&& other) noexcept;
  Budget(const Budget&) = delete;
  Budget& operator=(const Budget&) = delete;

  static Budget unlimited() { return Budget(); }
  static Budget with_deadline_ms(std::int64_t ms) {
    Budget b;
    b.set_deadline_ms(ms);
    return b;
  }
  static Budget with_step_limit(std::int64_t steps) {
    Budget b;
    b.set_step_limit(steps);
    return b;
  }

  /// Deadline `ms` milliseconds from now (<= 0 expires immediately).
  Budget& set_deadline_ms(std::int64_t ms);
  /// Allow at most `steps` units of work (engine-specific unit above).
  Budget& set_step_limit(std::int64_t steps);
  Budget& set_cancel_token(std::shared_ptr<CancelToken> token);

  bool has_deadline() const { return has_deadline_; }
  bool has_step_limit() const { return step_limit_ >= 0; }

  /// The token (created on demand), for wiring into parallel_for or for
  /// cancelling this budget's run from another thread.
  const std::shared_ptr<CancelToken>& cancel_token();
  /// Fire the cancellation token (creates it if absent).
  void cancel();

  /// Consume n steps. Returns false once the step limit is exhausted
  /// (the nth step that crosses the limit still "happened" -- engines
  /// check the return value and stop at their next safe point).
  bool consume(std::int64_t n = 1) const;

  std::int64_t steps_used() const;
  /// Remaining steps, or a large sentinel when unlimited.
  std::int64_t steps_remaining() const;

  /// True when any guard tripped: cancellation, step limit, or deadline.
  /// The deadline clock is only read every few calls (amortized), so this
  /// is cheap enough for per-iteration polling.
  bool exhausted() const;

  /// Why exhausted() is true (kOk when it is not). Order of precedence:
  /// cancellation, step limit, deadline.
  Status status() const;

 private:
  bool deadline_passed() const;

  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  std::int64_t step_limit_ = -1;  // -1 = unlimited
  mutable std::atomic<std::int64_t> steps_used_{0};
  // Deadline polls are amortized: the steady_clock is read once per
  // kClockStride exhausted() calls, and a tripped deadline latches.
  mutable std::atomic<std::int64_t> polls_{0};
  mutable std::atomic<bool> deadline_tripped_{false};
  std::shared_ptr<CancelToken> token_;
};

}  // namespace l2l::util
