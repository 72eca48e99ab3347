// Parallel execution core benchmarks: facade overhead, plus 1/2/4/8-thread
// scaling of every subsystem the pool backs -- SpMV, CG dot products,
// and fault simulation. Grading's thread scaling on real artifacts is the
// end-to-end benchmark's semester_unique workload. Run with
//   perf_parallel --benchmark_format=json --benchmark_out=BENCH_parallel.json
// (tools/run_benches.sh does this for every perf binary) to record the
// speedup trajectory machine-readably.

#include <benchmark/benchmark.h>

#include <atomic>
#include <vector>

#include "fault/faults.hpp"
#include "fault/simulator.hpp"
#include "gen/function_gen.hpp"
#include "linalg/cg.hpp"
#include "linalg/sparse.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace l2l;

/// Pentadiagonal SPD test matrix, the shape the quadratic placer builds.
linalg::SparseMatrix make_matrix(int n) {
  linalg::SparseMatrix a(n);
  for (int i = 0; i < n; ++i) {
    a.add(i, i, 6.0);
    for (const int off : {1, 17}) {
      if (i + off < n) {
        a.add(i, i + off, -1.0);
        a.add(i + off, i, -1.0);
      }
    }
  }
  a.compress();
  return a;
}

void BM_ParallelForOverhead(benchmark::State& state) {
  // Dispatch cost of an (almost) empty parallel region vs its range.
  const int threads = static_cast<int>(state.range(0));
  util::set_num_threads(threads);
  std::atomic<std::int64_t> sink{0};
  for (auto _ : state) {
    util::parallel_for_chunks(0, 1 << 16, 1 << 10,
                              [&](std::int64_t b, std::int64_t e) {
                                sink.fetch_add(e - b,
                                               std::memory_order_relaxed);
                              });
  }
  util::set_num_threads(0);
  state.counters["threads"] = threads;
  benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_ParallelForOverhead)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_SpmvThreadScaling(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto a = make_matrix(200'000);
  std::vector<double> x(200'000, 1.0), y;
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 1.0 + 1e-3 * static_cast<double>(i % 97);
  util::set_num_threads(threads);
  for (auto _ : state) {
    a.multiply(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  util::set_num_threads(0);
  state.counters["threads"] = threads;
  state.counters["nnz"] = static_cast<double>(a.nnz());
}
BENCHMARK(BM_SpmvThreadScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_CgThreadScaling(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto a = make_matrix(100'000);
  std::vector<double> b(100'000);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<double>(i % 13) - 6.0;
  util::set_num_threads(threads);
  double residual = 0;
  for (auto _ : state) {
    linalg::CgOptions opt;
    opt.max_iterations = 200;
    const auto res = linalg::conjugate_gradient(a, b, opt);
    residual = res.residual;
  }
  util::set_num_threads(0);
  state.counters["threads"] = threads;
  state.counters["residual"] = residual;  // thread-invariant by design
}
BENCHMARK(BM_CgThreadScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_FaultSimThreadScaling(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto net = gen::adder_network(6);
  const auto faults = fault::enumerate_faults(net);
  util::set_num_threads(threads);
  int detected = 0;
  for (auto _ : state) {
    util::Rng rng(55);
    const auto res = fault::random_pattern_coverage(net, faults, 256, rng);
    detected = res.detected;
  }
  util::set_num_threads(0);
  state.counters["threads"] = threads;
  state.counters["faults"] = static_cast<double>(faults.size());
  state.counters["detected"] = detected;  // thread-invariant by design
}
BENCHMARK(BM_FaultSimThreadScaling)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
