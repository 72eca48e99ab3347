// Multi-level synthesis benchmarks: the algebraic script on random and
// structured networks, kernel extraction scaling, the SDC-simplify
// ablation, and the flow's synthesis step on its netlist shapes.

#include <benchmark/benchmark.h>

#include "gen/function_gen.hpp"
#include "mls/kernels.hpp"
#include "mls/passes.hpp"
#include "mls/script.hpp"
#include "mls/sop.hpp"
#include "network/blif.hpp"
#include "util/rng.hpp"

namespace {

using namespace l2l;

void BM_AlgebraicScript(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const bool sdc = state.range(1) != 0;
  util::Rng rng(55);
  gen::NetworkGenOptions gopt;
  gopt.num_inputs = 8;
  gopt.num_nodes = nodes;
  gopt.num_outputs = 4;
  const auto base = gen::random_network(gopt, rng);
  int lits_after = 0, lits_before = 0;
  for (auto _ : state) {
    auto net = network::parse_blif(network::write_blif(base));
    mls::ScriptOptions opt;
    opt.use_sdc_simplify = sdc;
    const auto stats = mls::optimize(net, opt);
    lits_before = stats.literals_before;
    lits_after = stats.literals_after;
    state.counters["lits_before"] = lits_before;
    state.counters["lits_after"] = lits_after;
  }
  (void)lits_before;
  (void)lits_after;
  state.SetLabel(sdc ? "with SDC simplify" : "no don't-cares");
}
BENCHMARK(BM_AlgebraicScript)
    ->Args({20, 0})
    ->Args({20, 1})
    ->Args({40, 0})
    ->Args({40, 1})
    ->Iterations(1);

void BM_KernelEnumeration(benchmark::State& state) {
  const int terms = static_cast<int>(state.range(0));
  // Dense SOP over 12 literals with shared structure.
  mls::Sop f;
  for (int t = 0; t < terms; ++t) {
    mls::Term term;
    term.push_back(2 * (t % 4));
    term.push_back(2 * (4 + t % 3));
    term.push_back(2 * (7 + t % 5));
    std::sort(term.begin(), term.end());
    term.erase(std::unique(term.begin(), term.end()), term.end());
    f.push_back(std::move(term));
  }
  f = mls::normalized(std::move(f));
  std::size_t kernels = 0;
  for (auto _ : state) {
    kernels = mls::all_kernels(f).size();
    state.counters["kernels"] = static_cast<double>(kernels);
  }
  (void)kernels;
}
BENCHMARK(BM_KernelEnumeration)->Arg(8)->Arg(16)->Arg(32);

void BM_AdderOptimization(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  const auto base = gen::adder_network(bits);
  int lits = 0;
  for (auto _ : state) {
    auto net = network::parse_blif(network::write_blif(base));
    mls::optimize(net);
    lits = net.num_literals();
    state.counters["literals"] = lits;
  }
  (void)lits;
}
BENCHMARK(BM_AdderOptimization)->Arg(4)->Arg(8)->Iterations(1);

// The flow's synthesis step on its netlist shapes: structured circuits
// with wide supports, and a small random netlist whose every node is an
// output (nothing is eliminated, so resubstitution sees every node).
void BM_FlowScript(benchmark::State& state) {
  network::Network base;
  switch (state.range(0)) {
    case 0: base = gen::mux_network(5); state.SetLabel("mux5"); break;
    case 1: base = gen::parity_network(80); state.SetLabel("parity80"); break;
    default: {
      util::Rng rng(1);
      gen::NetworkGenOptions gopt;
      gopt.num_inputs = 8;
      gopt.num_nodes = 14;
      gopt.num_outputs = 14;
      base = gen::random_network(gopt, rng);
      state.SetLabel("random14, all outputs");
    }
  }
  int lits = 0;
  for (auto _ : state) {
    auto net = network::parse_blif(network::write_blif(base));
    mls::ScriptOptions opt;  // the flow's options
    opt.use_sdc_simplify = static_cast<int>(net.inputs().size()) <= 16;
    mls::optimize(net, opt);
    lits = net.num_literals();
    state.counters["literals"] = lits;
  }
  (void)lits;
}
BENCHMARK(BM_FlowScript)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace
