// Lint benchmarks: per-format rule-pack cost on growing artifacts, the
// pathological-input guard (hostile headers must cost milliseconds, not
// an engine budget), and lint_files scaling across the worker pool --
// the number that justifies running lint ahead of every grade.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "lint/lint.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

using namespace l2l;

// A well-formed chain-of-ANDs BLIF with `blocks` logic nodes.
std::string synthetic_blif(int blocks) {
  std::string s = ".model chain\n.inputs x0 x1\n.outputs y\n";
  for (int i = 0; i < blocks; ++i) {
    const std::string in = i == 0 ? "x0" : "n" + std::to_string(i - 1);
    const std::string out =
        i + 1 == blocks ? "y" : "n" + std::to_string(i);
    s += ".names " + in + " x1 " + out + "\n11 1\n";
  }
  s += ".end\n";
  return s;
}

// A satisfiable-looking random 3-CNF with `clauses` clauses.
std::string synthetic_cnf(int vars, int clauses, std::uint64_t seed) {
  util::Rng rng(seed);
  std::string s =
      "p cnf " + std::to_string(vars) + " " + std::to_string(clauses) + "\n";
  for (int c = 0; c < clauses; ++c) {
    for (int k = 0; k < 3; ++k) {
      const int v = 1 + static_cast<int>(rng.next_below(
                            static_cast<std::uint32_t>(vars)));
      s += std::to_string(rng.next_below(2) ? v : -v) + " ";
    }
    s += "0\n";
  }
  return s;
}

void BM_LintBlifPack(benchmark::State& state) {
  const auto text = synthetic_blif(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto findings = lint::lint_blif(text);
    benchmark::DoNotOptimize(findings);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_LintBlifPack)->Arg(64)->Arg(512)->Arg(4096);

void BM_LintCnfPack(benchmark::State& state) {
  const auto text =
      synthetic_cnf(200, static_cast<int>(state.range(0)), 2026);
  for (auto _ : state) {
    auto findings = lint::lint_cnf(text);
    benchmark::DoNotOptimize(findings);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_LintCnfPack)->Arg(256)->Arg(2048)->Arg(16384);

// Placement uploads like the placement course's: 240 cells on a 19 x 19
// grid, lines shuffled. Arg 0 is a legal upload; Arg 1 repeats one cell
// and moves another onto a taken site, so the L002 and L005 paths run.
void BM_LintPlacement(benchmark::State& state) {
  constexpr int kCells = 240;
  const int side = static_cast<int>(std::ceil(std::sqrt(kCells * 1.5)));
  util::Rng rng(2021);
  std::vector<std::string> lines;
  for (int c = 0; c < kCells; ++c)
    lines.push_back(util::format("cell %d %d %d", c, c % side, c / side));
  if (state.range(0) != 0) {
    lines.push_back(util::format("cell 7 %d %d", side - 1, side - 1));
    lines[9] = util::format("cell 9 %d %d", 3 % side, 3 / side);
  }
  for (std::size_t i = lines.size() - 1; i > 0; --i)
    std::swap(lines[i], lines[rng.next_below(i + 1)]);
  std::string text;
  for (const auto& l : lines) text += l + "\n";
  const lint::PlacementSpec spec{kCells, side, side};
  for (auto _ : state) {
    auto findings = lint::lint_placement(text, spec);
    benchmark::DoNotOptimize(findings);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_LintPlacement)->Arg(0)->Arg(1);

// The guard every pack promises: a header that *declares* astronomical
// sizes must lint in time proportional to the bytes present, because the
// grading queue runs lint before any resource-guarded engine.
void BM_LintHostileHeaders(benchmark::State& state) {
  const std::vector<std::pair<std::string, std::string>> hostile = {
      {"huge.cnf", "p cnf 2000000000 2000000000\n1 2 0\n"},
      {"huge.problem", "grid 2000000000 2000000000 64\nobstacles 0\n"},
      {"huge.pla", ".i 1000000\n.o 1000000\n.p 2000000000\n"},
  };
  for (auto _ : state) {
    auto report = lint::lint_files(hostile);
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK(BM_LintHostileHeaders);

// Batch lint across the pool: Arg is the thread count; the batch is one
// submission-sized artifact per simulated student.
void BM_LintFilesScaling(benchmark::State& state) {
  std::vector<std::pair<std::string, std::string>> batch;
  for (int i = 0; i < 64; ++i) {
    batch.emplace_back("hw" + std::to_string(i) + ".blif",
                       synthetic_blif(256));
    batch.emplace_back("hw" + std::to_string(i) + ".cnf",
                       synthetic_cnf(100, 512, 100 + i));
  }
  util::set_num_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto report = lint::lint_files(batch);
    benchmark::DoNotOptimize(report);
  }
  util::set_num_threads(0);
  state.counters["files"] = static_cast<double>(batch.size());
}
BENCHMARK(BM_LintFilesScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
