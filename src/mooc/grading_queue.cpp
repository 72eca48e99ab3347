#include "mooc/grading_queue.hpp"

#include <algorithm>
#include <limits>

#include "util/strings.hpp"

namespace l2l::mooc {
namespace {

/// splitmix64: the standard 64-bit finalizer. Good enough to turn
/// (seed, submission, attempt) into an independent uniform draw.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double uniform01(std::uint64_t seed, std::uint64_t submission,
                 std::uint64_t attempt, std::uint64_t salt) {
  std::uint64_t h = splitmix64(seed ^ splitmix64(submission ^ salt));
  h = splitmix64(h ^ attempt);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

bool lint_pre_grade_rejects(const std::string& submission,
                            const QueueOptions& opt, SubmissionOutcome& out) {
  if (!opt.lint) return false;
  const auto findings = opt.lint(submission);
  bool fatal = false;
  for (const auto& d : findings)
    fatal = fatal || d.severity == util::Severity::kError;
  if (!fatal) return false;
  out.kind = OutcomeKind::kRejected;
  out.status = util::Status::parse_error("rejected by lint");
  out.diagnostic =
      util::format("lint rejected the submission (%d finding(s)):\n",
                   static_cast<int>(findings.size())) +
      util::render_diagnostics(findings);
  return true;
}

void grade_one_submission(std::uint64_t fault_key,
                          const std::string& submission, const GradeFn& grade,
                          const QueueOptions& opt, SubmissionOutcome& out,
                          FaultTally& tally) {
  const int max_attempts = 1 + std::max(0, opt.max_retries);
  // Whether the latest failed attempt was a grader throw (poison input)
  // rather than an injected fault; it picks kFailed over kExhausted.
  bool grader_threw = false;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    ++out.attempts;
    if (attempt > 0) {
      // Exponential backoff with the shift clamped to 30 and the running
      // total saturated: at max_retries = 64 a naive `base << (attempt-1)`
      // shifts past the width of int (UB) long before the loop ends.
      const int shift = std::min(attempt - 1, 30);
      constexpr auto kMaxTicks =
          static_cast<std::int64_t>(std::numeric_limits<int>::max());
      const std::int64_t step = std::min(
          static_cast<std::int64_t>(opt.backoff_base_ticks) << shift,
          kMaxTicks);
      out.backoff_ticks = static_cast<int>(std::min(
          static_cast<std::int64_t>(out.backoff_ticks) + step, kMaxTicks));
    }

    // Injected worker faults, decided by hash alone so the outcome
    // is identical regardless of which lane runs this submission.
    const auto ui = fault_key;
    const auto ua = static_cast<std::uint64_t>(attempt);
    if (uniform01(opt.fault_seed, ui, ua, 0x7261776bull) <
        opt.transient_fault_rate) {
      ++tally.transients;
      grader_threw = false;
      out.status = util::Status::internal("injected transient fault");
      out.diagnostic =
          util::format("worker crashed on attempt %d (injected)", attempt + 1);
      continue;  // retry
    }
    if (uniform01(opt.fault_seed, ui, ua, 0x7374616cull) < opt.stall_rate) {
      ++tally.stalls;
      grader_threw = false;
      out.status = util::Status::timeout("injected worker stall");
      out.diagnostic =
          util::format("worker stalled on attempt %d (injected)", attempt + 1);
      continue;  // retry
    }

    util::Budget guard;
    if (opt.step_limit >= 0) guard.set_step_limit(opt.step_limit);
    if (opt.time_limit_ms >= 0) guard.set_deadline_ms(opt.time_limit_ms);
    try {
      const double score = grade(submission, guard);
      if (guard.exhausted()) {
        // Deterministic resource exhaustion: the same submission
        // would exhaust the same budget again, so don't retry.
        out.kind = OutcomeKind::kBudget;
        out.status = guard.status();
        out.diagnostic = "submission exceeded its grading budget";
        return;
      }
      out.kind = OutcomeKind::kGraded;
      out.score = score;
      out.status = util::Status::okay();
      out.diagnostic.clear();
      return;
    } catch (const util::BudgetExceededError& e) {
      out.kind = OutcomeKind::kBudget;
      out.status = e.status();
      out.diagnostic = "submission exceeded its grading budget";
      return;  // deterministic: no retry
    } catch (const std::exception& e) {
      // Poison input: grading threw. Retried (the throw could have
      // been environmental), converted to kFailed when retries run
      // out.
      out.status = util::Status::internal(e.what());
      out.diagnostic = util::format("grader error: %s", e.what());
      grader_threw = true;
      continue;
    } catch (...) {
      out.status = util::Status::internal("unknown grader error");
      out.diagnostic = "grader error: unknown";
      grader_threw = true;
      continue;
    }
  }
  // All attempts consumed without a graded result.
  out.kind = grader_threw ? OutcomeKind::kFailed : OutcomeKind::kExhausted;
}

}  // namespace l2l::mooc
