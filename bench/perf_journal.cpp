// Journal-layer microbenchmarks (mooc/journal.hpp): what the
// crash-recovery machinery itself costs, isolated from the grading loop
// it protects. Three questions:
//
//   * append -- frames/sec through JournalWriter with a once-per-tick
//     flush cadence (the write path every journaled drain pays), for
//     graded outcomes and for dedup-memo replays (the frame nearly every
//     upload of a duplicate-heavy semester writes);
//   * crc    -- bytes/sec through cache::crc32, which every frame pays
//     on write and on scan;
//   * scan   -- bytes/sec through scan_journal's CRC-checked frame walk
//     (the recovery path's startup cost).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "cache/digest.hpp"
#include "mooc/grading_queue.hpp"
#include "mooc/grading_service.hpp"
#include "mooc/journal.hpp"
#include "util/status.hpp"

namespace {

using namespace l2l;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

mooc::JournalHeader bench_header() {
  mooc::JournalHeader h;
  h.num_events = 1 << 20;
  return h;
}

/// A representative graded outcome: a couple of attempts, a short
/// diagnostic -- the frame size the write path sees in the wild.
mooc::SubmissionOutcome bench_outcome() {
  mooc::SubmissionOutcome out;
  out.kind = mooc::OutcomeKind::kGraded;
  out.score = 87.0;
  out.attempts = 2;
  out.status = util::Status::okay();
  return out;
}

/// Append throughput: ticks of 64 outcome frames plus the begin/end
/// marks, flushed per tick like the service does.
void BM_JournalAppend(benchmark::State& state) {
  const auto path = temp_path("l2l_perf_journal_append.l2lj");
  const auto out = bench_outcome();
  const mooc::FaultTally tally;
  constexpr int kPerTick = 64;
  std::int64_t frames = 0;
  for (auto _ : state) {
    state.PauseTiming();
    mooc::JournalWriter writer;
    if (const auto st = writer.open(path, bench_header(), false); !st.ok()) {
      state.SkipWithError(st.to_string().c_str());
      break;
    }
    state.ResumeTiming();
    for (std::uint32_t tick = 0; tick < 64; ++tick) {
      writer.tick_begin(tick);
      for (int i = 0; i < kPerTick; ++i)
        writer.outcome(static_cast<std::uint64_t>(tick) * kPerTick + i,
                       mooc::Disposition::kGraded, 0, false, false, out,
                       tally);
      if (const auto st = writer.tick_end(tick, 0x1234u + tick); !st.ok()) {
        state.SkipWithError(st.to_string().c_str());
        break;
      }
      frames += kPerTick + 2;
    }
    benchmark::DoNotOptimize(writer.bytes_written());
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  state.SetItemsProcessed(frames);
  state.counters["frames_per_tick"] = kPerTick + 2;
}
BENCHMARK(BM_JournalAppend)->Unit(benchmark::kMillisecond);

/// Memo-replay append throughput: ticks of 64 dedup-memo replay frames,
/// each naming the submission whose outcome it replays.
void BM_JournalAppendReplays(benchmark::State& state) {
  const auto path = temp_path("l2l_perf_journal_replays.l2lj");
  constexpr int kPerTick = 64;
  std::int64_t frames = 0;
  for (auto _ : state) {
    state.PauseTiming();
    mooc::JournalWriter writer;
    if (const auto st = writer.open(path, bench_header(), false); !st.ok()) {
      state.SkipWithError(st.to_string().c_str());
      break;
    }
    state.ResumeTiming();
    for (std::uint32_t tick = 0; tick < 64; ++tick) {
      writer.tick_begin(tick);
      for (int i = 0; i < kPerTick; ++i) {
        const auto id = static_cast<std::uint64_t>(tick) * kPerTick + i;
        writer.replayed(id, mooc::ReplaySource::kFullMemo,
                        mooc::Disposition::kGraded, 1, id % 32);
      }
      if (const auto st = writer.tick_end(tick, 0x1234u + tick); !st.ok()) {
        state.SkipWithError(st.to_string().c_str());
        break;
      }
      frames += kPerTick + 2;
    }
    benchmark::DoNotOptimize(writer.bytes_written());
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  state.SetItemsProcessed(frames);
}
BENCHMARK(BM_JournalAppendReplays)->Unit(benchmark::kMillisecond);

/// CRC-32 over one buffer of range(0) bytes.
void BM_Crc32(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::string buf(n, '\0');
  for (std::size_t i = 0; i < n; ++i)
    buf[i] = static_cast<char>((i * 2654435761u) >> 13);
  std::uint32_t acc = 0;
  for (auto _ : state) {
    acc ^= cache::crc32(buf);
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc32)->RangeMultiplier(8)->Range(64, 64 << 10);

/// Scan/recovery read path: CRC-walk a complete journal of 64 ticks and
/// decode every frame.
void BM_JournalScan(benchmark::State& state) {
  const auto path = temp_path("l2l_perf_journal_scan.l2lj");
  const auto out = bench_outcome();
  const mooc::FaultTally tally;
  {
    mooc::JournalWriter writer;
    if (const auto st = writer.open(path, bench_header(), false); !st.ok()) {
      state.SkipWithError(st.to_string().c_str());
      return;
    }
    for (std::uint32_t tick = 0; tick < 64; ++tick) {
      writer.tick_begin(tick);
      for (int i = 0; i < 64; ++i)
        writer.outcome(static_cast<std::uint64_t>(tick) * 64 + i,
                       mooc::Disposition::kGraded, 0, false, false, out,
                       tally);
      (void)writer.tick_end(tick, 0x1234u + tick);
    }
  }
  std::error_code ec;
  const auto bytes =
      static_cast<std::int64_t>(std::filesystem::file_size(path, ec));
  std::int64_t ticks = 0;
  for (auto _ : state) {
    const auto scan = mooc::scan_journal(path);
    if (!scan.status.ok() || !scan.found) {
      state.SkipWithError("scan failed");
      break;
    }
    ticks += static_cast<std::int64_t>(scan.ticks.size());
    benchmark::DoNotOptimize(scan.valid_bytes);
  }
  std::filesystem::remove(path, ec);
  state.SetBytesProcessed(state.iterations() * bytes);
  benchmark::DoNotOptimize(ticks);
}
BENCHMARK(BM_JournalScan)->Unit(benchmark::kMillisecond);

}  // namespace
