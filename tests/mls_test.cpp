#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>

#include "cache/digest.hpp"
#include "gen/function_gen.hpp"
#include "mls/factor.hpp"
#include "mls/kernels.hpp"
#include "mls/passes.hpp"
#include "mls/script.hpp"
#include "mls/sop.hpp"
#include "network/blif.hpp"
#include "network/equivalence.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace l2l::mls {
namespace {

using network::Network;
using network::NodeId;

// Network with inputs a..f and one big node: the textbook kernel example
// f = adf + aef + bdf + bef + cdf + cef + g   (kernels: {a+b+c, d+e, ...}).
struct Fixture {
  Network net;
  NodeId out;
  std::vector<NodeId> in;

  explicit Fixture(const std::string& sop_spec, int num_inputs) {
    for (int i = 0; i < num_inputs; ++i)
      in.push_back(net.add_input(std::string(1, static_cast<char>('a' + i))));
    out = net.add_logic("F", {}, cubes::Cover(0));
    // sop_spec: terms separated by '+', literals as letters, ' = negated.
    Sop sop;
    for (const auto& term_str : util::split(sop_spec, "+")) {
      Term t;
      for (std::size_t k = 0; k < term_str.size(); ++k) {
        if (std::isspace(static_cast<unsigned char>(term_str[k]))) continue;
        const int var = term_str[k] - 'a';
        const bool neg = k + 1 < term_str.size() && term_str[k + 1] == '\'';
        t.push_back(mk_glit(in[static_cast<std::size_t>(var)], neg));
        if (neg) ++k;
      }
      std::sort(t.begin(), t.end());
      sop.push_back(std::move(t));
    }
    set_node_sop(net, out, normalized(std::move(sop)));
    net.mark_output(out);
  }
};

TEST(Sop, RoundTripThroughNode) {
  Fixture fx("ab + c'd", 4);
  const Sop s = sop_of_node(fx.net, fx.out);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(sop_literals(s), 4);
  EXPECT_EQ(sop_to_string(fx.net, s), "a b + c' d");
}

TEST(Sop, TermOps) {
  const Term ab{0, 2}, b{2}, abc{0, 2, 4};
  EXPECT_TRUE(term_contains(abc, ab));
  EXPECT_FALSE(term_contains(ab, abc));
  EXPECT_EQ(term_product(ab, b), ab);
  EXPECT_EQ(term_quotient(abc, b), (Term{0, 4}));
}

TEST(Sop, CommonCubeAndCubeFree) {
  // ab + ac: common cube a.
  const Sop f{{0, 2}, {0, 4}};
  EXPECT_EQ(common_cube(f), Term{0});
  EXPECT_FALSE(is_cube_free(f));
  const Sop g{{0, 2}, {4}};
  EXPECT_TRUE(is_cube_free(g));
}

TEST(Sop, NormalizedDropsContainedTerms) {
  // ab + a -> a.
  const Sop f = normalized({{0, 2}, {0}});
  EXPECT_EQ(f, Sop{{0}});
}

TEST(Sop, DivideTextbook) {
  // f = ac + ad + bc + bd + e; d = a + b -> q = c + d, r = e.
  // encode a=0,b=2,c=4,d=6,e=8.
  const Sop f{{0, 4}, {0, 6}, {2, 4}, {2, 6}, {8}};
  const Sop d{{0}, {2}};
  const auto [q, r] = divide(f, d);
  EXPECT_EQ(q, (Sop{{4}, {6}}));
  EXPECT_EQ(r, (Sop{{8}}));
  // Reconstruction.
  EXPECT_EQ(normalized(multiply_add(d, q, r)), normalized(Sop(f)));
}

TEST(Sop, DivideNonDivisor) {
  const Sop f{{0, 4}};
  const Sop d{{2}};
  const auto [q, r] = divide(f, d);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(r, f);
}

TEST(Kernels, TextbookExample) {
  // f = adf + aef + bdf + bef + cdf + cef + g (Brayton's example):
  // kernels include (d+e), (a+b+c), and f itself... here the co-kernel
  // algebra: all_kernels must find (a+b+c) with co-kernels df, ef, and
  // (d+e) with co-kernels af, bf, cf.
  // encode a..g = 0,2,4,6,8,10,12.
  Sop f;
  for (const int x : {0, 2, 4})
    for (const int y : {6, 8}) f.push_back(Term{x, y, 10});
  f.push_back(Term{12});
  f = normalized(std::move(f));
  const auto ks = all_kernels(f);
  bool found_abc = false, found_de = false;
  for (const auto& k : ks) {
    if (k.kernel == Sop{{0}, {2}, {4}}) found_abc = true;
    if (k.kernel == Sop{{6}, {8}}) found_de = true;
  }
  EXPECT_TRUE(found_abc);
  EXPECT_TRUE(found_de);
  // f itself is cube-free (g has no common literal), so f is a kernel too.
  bool found_self = false;
  for (const auto& k : ks)
    if (k.kernel == f && k.co_kernel.empty()) found_self = true;
  EXPECT_TRUE(found_self);
}

TEST(Kernels, CubeFreeKernelsOnly) {
  Sop f{{0, 4}, {0, 6}, {2, 4}, {2, 6}};
  for (const auto& k : all_kernels(f)) {
    EXPECT_TRUE(is_cube_free(k.kernel))
        << "non-cube-free kernel found";
  }
}

TEST(Kernels, NoKernelsForSingleCube) {
  EXPECT_TRUE(all_kernels(Sop{{0, 2, 4}}).empty());
}

TEST(Kernels, Level0AreKernelFree) {
  Sop f;
  for (const int x : {0, 2, 4})
    for (const int y : {6, 8}) f.push_back(Term{x, y});
  f = normalized(std::move(f));
  const auto l0 = level0_kernels(f);
  EXPECT_FALSE(l0.empty());
  for (const auto& k : l0)
    for (const auto& inner : all_kernels(k.kernel))
      EXPECT_EQ(inner.kernel, k.kernel);
}

TEST(Factor, PreservesFunctionAndSavesLiterals) {
  // f = ac + ad + bc + bd + ae' (classic factoring win).
  Fixture fx("ac + ad + bc + bd + ae'", 5);
  const Sop f = sop_of_node(fx.net, fx.out);
  const Expr e = factor(f);
  EXPECT_EQ(normalized(expr_to_sop(e)), normalized(Sop(f)));
  EXPECT_LT(expr_literals(e), sop_literals(f));
  EXPECT_LE(expr_literals(e), 7);  // (a+b)(c+d) + ae' = 6 literals
}

TEST(Factor, Constants) {
  EXPECT_EQ(factor({}).kind, Expr::Kind::kConst0);
  const Expr one = factor({Term{}});
  EXPECT_EQ(expr_literals(one), 0);
  EXPECT_EQ(expr_to_sop(one), Sop{Term{}});
}

TEST(Factor, RandomSopsRoundTrip) {
  util::Rng rng(71);
  for (int trial = 0; trial < 40; ++trial) {
    Sop f;
    const int nterms = 1 + static_cast<int>(rng.next_below(6));
    for (int t = 0; t < nterms; ++t) {
      Term term;
      const int nlits = 1 + static_cast<int>(rng.next_below(4));
      for (int k = 0; k < nlits; ++k) {
        const int var = static_cast<int>(rng.next_below(5));
        term.push_back(mk_glit(var, false));  // positive-unate random SOPs
      }
      std::sort(term.begin(), term.end());
      term.erase(std::unique(term.begin(), term.end()), term.end());
      f.push_back(std::move(term));
    }
    f = normalized(std::move(f));
    const Expr e = factor(f);
    EXPECT_EQ(normalized(expr_to_sop(e)), f);
    EXPECT_LE(expr_literals(e), sop_literals(f));
  }
}

TEST(Factor, ExprToString) {
  Fixture fx("ac + ad + bc + bd", 4);
  const Expr e = factor(sop_of_node(fx.net, fx.out));
  const auto s = expr_to_string(fx.net, e);
  // Must be a product of two sums, e.g. "(a + b) (c + d)".
  EXPECT_NE(s.find('('), std::string::npos);
  EXPECT_NE(s.find('+'), std::string::npos);
}

// ---- Network passes ---------------------------------------------------

TEST(Passes, SweepFoldsConstantsAndBuffers) {
  auto net = network::parse_blif(
      ".model s\n.inputs a b\n.outputs y\n"
      ".names one\n1\n"
      ".names a buf\n1 1\n"
      ".names one buf b y\n111 1\n"
      ".end\n");
  const auto before = network::parse_blif(network::write_blif(net));
  sweep(net);
  net.validate();
  // After sweep, y should depend directly on a and b.
  EXPECT_TRUE(
      network::check_equivalence(before, net, network::EquivalenceMethod::kBdd)
          .equivalent);
  const auto& y = net.node(net.outputs()[0]);
  EXPECT_EQ(y.fanins.size(), 2u);
}

TEST(Passes, EliminateCollapsesSmallNodes) {
  auto net = network::parse_blif(
      ".model e\n.inputs a b c\n.outputs y\n"
      ".names a b t\n11 1\n"
      ".names t c y\n11 1\n"
      ".end\n");
  const auto before = network::parse_blif(network::write_blif(net));
  const int n = eliminate(net, 5);
  EXPECT_GE(n, 1);
  net.validate();
  EXPECT_TRUE(
      network::check_equivalence(before, net, network::EquivalenceMethod::kBdd)
          .equivalent);
  EXPECT_EQ(net.num_logic_nodes(), 1);  // t collapsed into y
}

TEST(Passes, EliminateHandlesNegativePhase) {
  auto net = network::parse_blif(
      ".model e\n.inputs a b c\n.outputs y\n"
      ".names a b t\n11 1\n"
      ".names t c y\n01 1\n"   // y = t' c
      ".end\n");
  const auto before = network::parse_blif(network::write_blif(net));
  eliminate(net, 5);
  net.validate();
  EXPECT_TRUE(
      network::check_equivalence(before, net, network::EquivalenceMethod::kBdd)
          .equivalent);
}

TEST(Passes, ExtractKernelsSharesLogic) {
  // Two outputs sharing the kernel (c + d).
  auto net = network::parse_blif(
      ".model k\n.inputs a b c d\n.outputs x y\n"
      ".names a c d x\n11- 1\n1-1 1\n"   // x = a(c+d)
      ".names b c d y\n11- 1\n1-1 1\n"   // y = b(c+d)
      ".end\n");
  const auto before = network::parse_blif(network::write_blif(net));
  const int lits_before = net.num_literals();
  const int created = extract_kernels(net);
  net.validate();
  EXPECT_GE(created, 1);
  EXPECT_LT(net.num_literals(), lits_before);
  EXPECT_TRUE(
      network::check_equivalence(before, net, network::EquivalenceMethod::kBdd)
          .equivalent);
}

TEST(Passes, ExtractCubesSharesProducts) {
  // abc, abd, abe share cube ab across three outputs (two occurrences are
  // only break-even: 2*(2-1) - 2 = 0; three pay off).
  auto net = network::parse_blif(
      ".model c\n.inputs a b c d e\n.outputs x y z\n"
      ".names a b c x\n111 1\n"
      ".names a b d y\n111 1\n"
      ".names a b e z\n111 1\n"
      ".end\n");
  const auto before = network::parse_blif(network::write_blif(net));
  const int created = extract_cubes(net);
  net.validate();
  EXPECT_GE(created, 1);
  EXPECT_TRUE(
      network::check_equivalence(before, net, network::EquivalenceMethod::kBdd)
          .equivalent);
}

TEST(Passes, ResubstituteDividesByExistingNode) {
  // x = (a + b)(c + d) + e(f + g) with t = a + b and u = f + g already in
  // the network: x is divided by t, then its rewritten form by u.
  auto net = network::parse_blif(
      ".model r\n.inputs a b c d e f g\n.outputs x t u\n"
      ".names a b t\n1- 1\n-1 1\n"
      ".names f g u\n1- 1\n-1 1\n"
      ".names a b c d e f g x\n"
      "1-1---- 1\n1--1--- 1\n-11---- 1\n-1-1--- 1\n----11- 1\n----1-1 1\n"
      ".end\n");
  const auto before = network::parse_blif(network::write_blif(net));
  const NodeId x = *net.find("x");
  EXPECT_EQ(resubstitute(net), 2);
  net.validate();
  const Sop sx = sop_of_node(net, x);
  EXPECT_EQ(sop_to_string(net, sx), "c t + d t + e u");
  EXPECT_EQ(sop_literals(sx), 6);
  EXPECT_EQ(sop_to_string(net, sop_of_node(net, *net.find("t"))), "a + b");
  EXPECT_EQ(sop_to_string(net, sop_of_node(net, *net.find("u"))), "f + g");
  EXPECT_TRUE(
      network::check_equivalence(before, net, network::EquivalenceMethod::kBdd)
          .equivalent);
}

TEST(Passes, ResubstituteSkipsDivisorWhoseConeHoldsTarget) {
  // y = a + b divides x = (a + b)(c + d) + e, but y also lists x as a
  // (vacuous) fanin: rewriting x in terms of y would close a cycle.
  auto net = network::parse_blif(
      ".model r\n.inputs a b c d e\n.outputs x y\n"
      ".names a b c d e x\n1-1-- 1\n1--1- 1\n-11-- 1\n-1-1- 1\n----1 1\n"
      ".names a b x y\n1-- 1\n-1- 1\n"
      ".end\n");
  const NodeId x = *net.find("x");
  const NodeId y = *net.find("y");
  ASSERT_EQ(net.node(y).fanins.size(), 3u);
  const Sop sx = sop_of_node(net, x);
  const Sop sy = sop_of_node(net, y);
  ASSERT_EQ(sop_to_string(net, sy), "a + b");
  EXPECT_EQ(resubstitute(net), 0);
  net.validate();
  EXPECT_EQ(sop_of_node(net, x), sx);
  EXPECT_EQ(sop_of_node(net, y), sy);
}

TEST(Passes, SimplifyWithSdcUsesUnreachablePatterns) {
  // t = ab, u = a'b; node y sees (t,u) and pattern t=u=1 is impossible.
  auto net = network::parse_blif(
      ".model s\n.inputs a b\n.outputs y\n"
      ".names a b t\n11 1\n"
      ".names a b u\n01 1\n"
      ".names t u y\n10 1\n01 1\n"   // y = t u' + t' u == t + u given SDC
      ".end\n");
  const auto before = network::parse_blif(network::write_blif(net));
  const int saved = simplify_with_sdc(net);
  net.validate();
  EXPECT_GT(saved, 0);
  EXPECT_TRUE(
      network::check_equivalence(before, net, network::EquivalenceMethod::kBdd)
          .equivalent);
}

TEST(Script, OptimizePreservesFunctionAndReducesLiterals) {
  auto net = network::parse_blif(
      ".model opt\n.inputs a b c d e\n.outputs x y\n"
      ".names a c d x\n110 1\n1-1 1\n101 1\n"
      ".names b c d e y\n11-0 1\n1-1- 1\n1011 1\n0111 1\n"
      ".end\n");
  const auto before = network::parse_blif(network::write_blif(net));
  const auto stats = optimize(net);
  net.validate();
  EXPECT_TRUE(
      network::check_equivalence(before, net, network::EquivalenceMethod::kBdd)
          .equivalent);
  EXPECT_TRUE(
      network::check_equivalence(before, net, network::EquivalenceMethod::kSat)
          .equivalent);
  EXPECT_LE(stats.literals_after, stats.literals_before);
  EXPECT_FALSE(stats.to_string().empty());
}

// The flow's netlist families, seeded: structured mux/parity/adder
// circuits and 8-14-node random networks (every node an output, as in the
// flow benchmark, plus a few with three outputs so eliminate and the
// extractors have internal nodes to work on). Resubstitution rarely fires
// on those, so 20-30-node networks over 4 inputs, where it does, are
// pinned too.
std::vector<std::pair<std::string, Network>> golden_networks() {
  std::vector<std::pair<std::string, Network>> out;
  for (int sel = 2; sel <= 5; ++sel)
    out.emplace_back(util::format("mux%d", sel), gen::mux_network(sel));
  for (const int bits : {8, 12, 16, 20, 24, 28, 32, 36, 80})
    out.emplace_back(util::format("parity%d", bits), gen::parity_network(bits));
  for (int bits = 1; bits <= 4; ++bits)
    out.emplace_back(util::format("adder%d", bits), gen::adder_network(bits));
  auto add_random = [&out](std::uint64_t seed, int inputs, int nodes,
                           int outputs) {
    util::Rng rng(seed);
    gen::NetworkGenOptions opt;
    opt.num_inputs = inputs;
    opt.num_nodes = nodes;
    opt.num_outputs = outputs;
    out.emplace_back(util::format("random_s%d_i%d_n%d_o%d",
                                  static_cast<int>(seed), inputs, nodes,
                                  outputs),
                     gen::random_network(opt, rng));
  };
  for (int k = 0; k < 14; ++k) {
    const int nodes = 8 + k % 7;
    add_random(7000 + static_cast<std::uint64_t>(k), 8, nodes,
               k < 10 ? nodes : 3);
  }
  for (int k = 0; k < 9; ++k)
    add_random(static_cast<std::uint64_t>(k), 4, k < 5 ? 20 : 30,
               k < 5 ? 20 : 30);
  return out;
}

// Extracted nodes take their names from a process-wide counter (ker_N,
// cub_N), so a digest must not depend on how many extractions ran before:
// renumber each prefix's names by first appearance.
std::string canonical_extract_names(const std::string& blif) {
  static const std::regex name_re("(ker_|cub_)([0-9]+)");
  std::map<std::string, std::string> renamed;
  std::map<std::string, int> next;
  std::string out;
  auto last = blif.cbegin();
  for (std::sregex_iterator it(blif.begin(), blif.end(), name_re), end;
       it != end; ++it) {
    const auto& m = *it;
    out.append(last, m[0].first);
    auto [pos, fresh] = renamed.try_emplace(m.str(0));
    if (fresh) pos->second = m.str(1) + std::to_string(next[m.str(1)]++);
    out += pos->second;
    last = m[0].second;
  }
  out.append(last, blif.cend());
  return out;
}

// Byte-identity pin of the whole script: the digest of write_blif after
// optimize, with the flow's options, for every golden network. To
// regenerate after an intentional change, run this test with
// L2L_UPDATE_GOLDEN=1 and commit tests/data/golden/mls_script_digests.txt.
TEST(Script, OptimizeOutputMatchesGolden) {
  std::string got;
  for (const auto& [name, gen_net] : golden_networks()) {
    // run_flow optimizes a BLIF round trip of its input.
    auto net = network::parse_blif(network::write_blif(gen_net));
    ScriptOptions sopt;
    sopt.use_sdc_simplify = static_cast<int>(net.inputs().size()) <= 16;
    optimize(net, sopt);
    got += name + " " +
           cache::digest_bytes(canonical_extract_names(network::write_blif(net)))
               .hex() +
           "\n";
  }
  const std::string golden_path =
      L2L_TEST_DATA_DIR "/golden/mls_script_digests.txt";
  if (std::getenv("L2L_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << got;
    GTEST_SKIP() << "golden file regenerated";
  }
  std::ifstream in(golden_path);
  std::ostringstream want;
  want << in.rdbuf();
  ASSERT_FALSE(want.str().empty())
      << "missing golden file tests/data/golden/mls_script_digests.txt";
  EXPECT_EQ(got, want.str()) << "actual:\n" << got;
}

// Property: the full script preserves functionality on random networks.
class ScriptPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ScriptPropertyTest, RandomNetworksStayEquivalent) {
  util::Rng rng(900 + static_cast<std::uint64_t>(GetParam()));
  Network net("rand");
  std::vector<NodeId> pool;
  for (int i = 0; i < 5; ++i)
    pool.push_back(net.add_input(util::format("i%d", i)));
  for (int k = 0; k < 10; ++k) {
    const int arity = 2 + static_cast<int>(rng.next_below(3));
    std::vector<NodeId> fanins;
    for (int j = 0; j < arity; ++j)
      fanins.push_back(pool[static_cast<std::size_t>(rng.next_below(pool.size()))]);
    cubes::Cover cover(arity);
    const int ncubes = 1 + static_cast<int>(rng.next_below(4));
    for (int c = 0; c < ncubes; ++c) {
      cubes::Cube cube(arity);
      for (int v = 0; v < arity; ++v) {
        switch (rng.next_below(3)) {
          case 0: cube.set_code(v, cubes::Pcn::kNeg); break;
          case 1: cube.set_code(v, cubes::Pcn::kPos); break;
          default: break;
        }
      }
      cover.add(std::move(cube));
    }
    pool.push_back(
        net.add_logic(util::format("n%d", k), std::move(fanins), std::move(cover)));
  }
  for (int k = 0; k < 3; ++k)
    net.mark_output(pool[pool.size() - 1 - static_cast<std::size_t>(k)]);

  const auto before = network::parse_blif(network::write_blif(net));
  const auto stats = optimize(net);
  net.validate();
  const auto res =
      network::check_equivalence(before, net, network::EquivalenceMethod::kBdd);
  EXPECT_TRUE(res.equivalent) << "failing output: " << res.failing_output;
  EXPECT_LE(stats.literals_after, stats.literals_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScriptPropertyTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace l2l::mls
