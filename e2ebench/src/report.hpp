#pragma once
// Shared plumbing for the end-to-end benchmark: the result record every
// run prints, order statistics, peak RSS, the per-layer busy-time
// accumulators the benchmark's wrappers fill, and readers over the spans
// and counters the library already exports.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile (pct in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double pct);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run reports: the result line's four keys.
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// The single-line JSON object a run prints as the last line of stdout.
std::string to_json(const RunResult& r);

// ---- per-layer busy time ---------------------------------------------------

/// Layers the benchmark times from outside, around its own calls into
/// them. The service calls the lint and grade callbacks from its worker
/// lanes, so the accumulators are atomics every lane adds into.
enum Layer : int {
  kSema = 0,
  kGradeRoute,
  kGradePlace,
  kGradePla,
  kGradeCnf,
  kNumLayers,
};

class LayerClock {
 public:
  double ms(Layer l) const {
    return static_cast<double>(ns_[l].load(std::memory_order_relaxed)) / 1e6;
  }
  std::int64_t calls(Layer l) const {
    return calls_[l].load(std::memory_order_relaxed);
  }

  /// RAII timer charging its lifetime to one layer; a null clock times
  /// nothing, so untraced runs pay one branch per call.
  class Scope {
   public:
    Scope(LayerClock* clock, Layer layer) : clock_(clock), layer_(layer) {
      if (clock_ != nullptr) t0_ = Clock::now();
    }
    ~Scope() {
      if (clock_ == nullptr) return;
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - t0_)
                          .count();
      clock_->ns_[layer_].fetch_add(ns, std::memory_order_relaxed);
      clock_->calls_[layer_].fetch_add(1, std::memory_order_relaxed);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    LayerClock* clock_;
    Layer layer_;
    Clock::time_point t0_{};
  };

 private:
  std::array<std::atomic<std::int64_t>, kNumLayers> ns_{};
  std::array<std::atomic<std::int64_t>, kNumLayers> calls_{};
};

// ---- readers over the library's own exports --------------------------------

/// [start, end) microsecond intervals of every recorded span named `name`
/// (read from the tracer's Chrome-trace export).
std::vector<std::pair<std::int64_t, std::int64_t>> span_intervals(
    const std::string& name);

/// Length of the union of `intervals`: the wall time during which at
/// least one of them was open.
std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>> intervals);

/// Counter value in a registry snapshot (0 when never touched).
std::int64_t counter(const l2l::obs::Snapshot& snap, const std::string& name);

/// Nearest-rank percentile over a power-of-two obs histogram, reported as
/// the upper edge of the bucket holding that rank; 0 when empty.
double histogram_percentile(const l2l::obs::Snapshot& snap, const std::string& name,
                            double pct);
double histogram_mean(const l2l::obs::Snapshot& snap, const std::string& name);

/// Start a repetition cold: empty result cache (memory only, no disk
/// tier), empty metrics registry and span tracer.
void cold_start();

}  // namespace e2e
