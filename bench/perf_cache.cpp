// Result-cache benchmarks: what a content-addressed hit costs (the
// latency every deduplicated submission pays instead of a grade), digest
// throughput over realistic submission sizes, and the headline workload
// from DESIGN.md "Caching & dedup" -- a 1000-upload semester through the
// grading service where 90% of uploads are duplicates, cold vs a warm
// re-run answered from the result cache.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/digest.hpp"
#include "mooc/cohort.hpp"
#include "mooc/grading_service.hpp"
#include "util/budget.hpp"

namespace {

using namespace l2l;

void BM_DigestThroughput(benchmark::State& state) {
  const std::string text(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    auto d = cache::digest_bytes(text);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_DigestThroughput)->Range(64, 1 << 16);

void BM_CacheHitLatency(benchmark::State& state) {
  cache::Cache c;
  const cache::CacheKey key{"bench", cache::digest_bytes("submission"),
                            cache::digest_bytes("config")};
  c.insert(key, std::string(256, 'r'));
  for (auto _ : state) {
    auto hit = c.lookup(key);
    benchmark::DoNotOptimize(hit);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHitLatency);

void BM_CacheMissLatency(benchmark::State& state) {
  cache::Cache c;
  std::uint64_t salt = 0;
  for (auto _ : state) {
    cache::Hasher h;
    h.u64(++salt);
    const cache::CacheKey key{"bench", h.finish(), cache::Digest128{}};
    auto miss = c.lookup(key);
    benchmark::DoNotOptimize(miss);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheMissLatency);

// ---- the 90%-duplicates semester through the grading service ------------

/// 1000 uploads of 100 unique bodies over 10 ticks, each tick carrying one
/// upload of every body -- the shape of a cohort resubmitting around a
/// deadline. Each body is a few hundred bytes so digesting is realistic,
/// not free. The first tick grades the pool; later ticks replay it from
/// the service's in-run memo.
mooc::SubmissionTrace duplicate_heavy_trace() {
  mooc::SubmissionTrace trace;
  trace.num_courses = 1;
  trace.ticks = 10;
  for (int b = 0; b < 100; ++b)
    trace.bodies.push_back("solution variant " + std::to_string(b) + "\n" +
                           std::string(300, static_cast<char>('a' + b % 26)));
  for (std::uint32_t k = 0; k < 1000; ++k)
    trace.events.push_back({.body = k % 100, .arrival_tick = k / 100,
                            .deadline_tick = k / 100 + 1});
  return trace;
}

/// A deliberately non-trivial grade: re-digests the submission 64 times,
/// standing in for a real grader's parse+verify pass. Deterministic, so
/// the cache may replay it.
double slow_grade(const std::string& s, const util::Budget&) {
  cache::Digest128 d = cache::digest_bytes(s);
  for (int r = 0; r < 64; ++r) {
    cache::Hasher h;
    h.u64(d.hi).u64(d.lo).str(s);
    d = h.finish();
  }
  return static_cast<double>(d.lo % 101);
}

mooc::GradingService duplicate_heavy_service() {
  mooc::ServiceOptions opt;
  opt.queue_cap = 1024;
  opt.admit_quota = 1024;
  opt.service_rate = 1024;
  opt.record_outcomes = false;
  opt.queue.cache_domain = "bench.service";
  return mooc::GradingService(opt, slow_grade);
}

void BM_ServiceColdCache(benchmark::State& state) {
  const auto trace = duplicate_heavy_trace();
  const auto service = duplicate_heavy_service();
  for (auto _ : state) {
    cache::Cache::global().clear();  // every run starts cold
    auto res = service.run(trace);
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.events.size()));
  cache::Cache::global().clear();
}
BENCHMARK(BM_ServiceColdCache)->Unit(benchmark::kMillisecond);

void BM_ServiceWarmRerun(benchmark::State& state) {
  // Every unique body is answered from the result cache (engine id
  // "mooc.service"); nothing is graded.
  const auto trace = duplicate_heavy_trace();
  const auto service = duplicate_heavy_service();
  cache::Cache::global().clear();
  {
    auto prefill = service.run(trace);
    benchmark::DoNotOptimize(prefill);
  }
  for (auto _ : state) {
    auto res = service.run(trace);
    benchmark::DoNotOptimize(res);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.events.size()));
  cache::Cache::global().clear();
}
BENCHMARK(BM_ServiceWarmRerun)->Unit(benchmark::kMillisecond);

}  // namespace
