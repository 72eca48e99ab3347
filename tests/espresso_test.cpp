#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "cache/digest.hpp"
#include "cubes/urp.hpp"
#include "espresso/minimize.hpp"
#include "espresso/pla.hpp"
#include "espresso/qm.hpp"
#include "tt/truth_table.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace l2l::espresso {
namespace {

using cubes::Cover;
using cubes::Cube;
using tt::TruthTable;

Cover random_cover(int n, int k, util::Rng& rng) {
  Cover f(n);
  for (int i = 0; i < k; ++i) {
    Cube c(n);
    for (int v = 0; v < n; ++v) {
      switch (rng.next_below(3)) {
        case 0: c.set_code(v, cubes::Pcn::kNeg); break;
        case 1: c.set_code(v, cubes::Pcn::kPos); break;
        default: break;
      }
    }
    f.add(std::move(c));
  }
  return f;
}

// Is every cube of g a prime implicant of the function on | dc?
bool all_cubes_prime(const Cover& g, const Cover& on, const Cover& dc) {
  const Cover allowed = on | dc;
  for (const auto& c : g.cubes()) {
    if (!cubes::cover_contains_cube(allowed, c)) return false;
    for (int v = 0; v < c.num_vars(); ++v) {
      if (c.code(v) == cubes::Pcn::kDontCare) continue;
      Cube raised = c;
      raised.set_code(v, cubes::Pcn::kDontCare);
      if (cubes::cover_contains_cube(allowed, raised)) return false;  // not maximal
    }
  }
  return true;
}

TEST(Expand, ProducesPrimes) {
  util::Rng rng(51);
  for (int trial = 0; trial < 30; ++trial) {
    const auto f = random_cover(4, 3, rng);
    if (f.empty()) continue;
    const Cover dc(4);
    const auto off = cubes::complement(f);
    const auto e = expand(f, off);
    EXPECT_TRUE(is_legal_implementation(e, f, dc)) << f.to_string();
    EXPECT_TRUE(all_cubes_prime(e, f, dc)) << f.to_string();
  }
}

TEST(Irredundant, RemovesRedundantCube) {
  // y + xz + xy: the consensus cube xz... actually xy is inside y. Check
  // the textbook case: f = x + x'y + y -> x + y (x'y redundant).
  const auto f = Cover::parse(2, "1-\n01\n-1\n");
  const auto r = irredundant(f, Cover(2));
  EXPECT_TRUE(cubes::covers_equal(r, f));
  EXPECT_LE(r.size(), 2);
}

TEST(Irredundant, ResultHasNoRedundantCubes) {
  util::Rng rng(52);
  for (int trial = 0; trial < 30; ++trial) {
    const auto f = random_cover(4, 5, rng);
    const auto r = irredundant(f, Cover(4));
    EXPECT_TRUE(cubes::covers_equal(r, f));
    // Each remaining cube must NOT be covered by the others.
    for (int i = 0; i < r.size(); ++i) {
      Cover rest(4);
      for (int j = 0; j < r.size(); ++j)
        if (j != i) rest.add(r.cube(j));
      EXPECT_FALSE(cubes::cover_contains_cube(rest, r.cube(i)));
    }
  }
}

TEST(Reduce, PreservesFunction) {
  util::Rng rng(53);
  for (int trial = 0; trial < 30; ++trial) {
    const auto f = random_cover(4, 4, rng);
    const auto r = reduce(f, Cover(4));
    EXPECT_TRUE(cubes::covers_equal(r, f)) << f.to_string();
  }
}

// Random cover whose positions carry a literal with probability lit_pct%
// (either phase), so sparse and dense covers both get drawn.
Cover random_cover_density(int n, int k, int lit_pct, util::Rng& rng) {
  Cover f(n);
  for (int i = 0; i < k; ++i) {
    Cube c(n);
    for (int v = 0; v < n; ++v)
      if (static_cast<int>(rng.next_below(100)) < lit_pct)
        c.set_code(v, rng.next_bool() ? cubes::Pcn::kPos : cubes::Pcn::kNeg);
    f.add(std::move(c));
  }
  return f;
}

Cube supercube(const Cover& g) {
  Cube s = g.cube(0);
  for (int i = 1; i < g.size(); ++i) s.or_with(g.cube(i));
  return s;
}

// REDUCE as it was written before SCCC: each cube, largest first, becomes
// the supercube of its sharp against the rest of the current cover. Kept
// only as the oracle reduce() must match byte for byte.
Cover sharp_reduce(const Cover& f, const Cover& dc) {
  std::vector<Cube> current(f.cubes());
  std::vector<int> order(current.size());
  for (std::size_t i = 0; i < current.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return current[static_cast<std::size_t>(a)].num_literals() <
           current[static_cast<std::size_t>(b)].num_literals();
  });
  for (const int i : order) {
    const Cube& c = current[static_cast<std::size_t>(i)];
    Cover rest = dc;
    for (std::size_t j = 0; j < current.size(); ++j)
      if (static_cast<int>(j) != i) rest.add(current[j]);
    const Cover exclusive = cubes::sharp(Cover(f.num_vars(), {c}), rest);
    if (exclusive.empty()) continue;
    current[static_cast<std::size_t>(i)] = supercube(exclusive);
  }
  Cover out(f.num_vars());
  for (auto& c : current) out.add(std::move(c));
  return out;
}

TEST(Reduce, MatchesSharpOracleByteForByte) {
  util::Rng rng(54);
  for (int trial = 0; trial < 12000; ++trial) {
    const int n = 2 + trial % 9;  // 2..10 variables
    const int lit_pct = 20 + static_cast<int>(rng.next_below(60));
    const auto on = random_cover_density(
        n, 1 + static_cast<int>(rng.next_below(8)), lit_pct, rng);
    const auto dc = random_cover_density(
        n, static_cast<int>(rng.next_below(3)), lit_pct, rng);
    // Half the trials reduce raw covers, half the expanded primes
    // REDUCE sees inside minimize().
    const auto f = trial % 2 == 0
                       ? on
                       : irredundant(expand(on, cubes::complement(on | dc)), dc);
    const auto got = reduce(f, dc);
    const auto want = sharp_reduce(f, dc);
    ASSERT_EQ(got.cubes(), want.cubes())
        << "trial " << trial << "\nf:\n" << f.to_string() << "dc:\n"
        << dc.to_string() << "got:\n" << got.to_string() << "want:\n"
        << want.to_string();
  }
}

// complement() skips the containment pass at each merge: the two Shannon
// halves differ in the split variable and each is containment-free by
// induction. This property is what justifies that.
TEST(Complement, OutputIsContainmentFreeAndExact) {
  util::Rng rng(55);
  for (int trial = 0; trial < 3000; ++trial) {
    const int n = 2 + trial % 9;
    const auto f = random_cover_density(
        n, static_cast<int>(rng.next_below(9)),
        20 + static_cast<int>(rng.next_below(60)), rng);
    const auto r = cubes::complement(f);
    for (int i = 0; i < r.size(); ++i)
      for (int j = 0; j < r.size(); ++j)
        ASSERT_TRUE(i == j || !r.cube(i).contains(r.cube(j)))
            << "trial " << trial << ": cube " << r.cube(i).to_string()
            << " contains " << r.cube(j).to_string() << "\nf:\n"
            << f.to_string();
    for (std::uint64_t m = 0; m < (std::uint64_t{1} << n); ++m)
      ASSERT_NE(r.eval(m), f.eval(m)) << "trial " << trial;
    // SCCC is the supercube of that complement (nullopt when it is empty).
    const auto s = cubes::sccc(f);
    ASSERT_EQ(s.has_value(), !r.empty()) << "trial " << trial;
    if (s) ASSERT_EQ(*s, supercube(r)) << "trial " << trial;
  }
}

// Compares `got` with tests/data/golden/`name`; with L2L_UPDATE_GOLDEN
// set, rewrites the file instead and skips the test.
void expect_golden(const std::string& name, const std::string& got) {
  const std::string golden_path = L2L_TEST_DATA_DIR "/golden/" + name;
  if (std::getenv("L2L_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << got;
    GTEST_SKIP() << "golden file regenerated";
  }
  std::ifstream in(golden_path);
  const std::string want((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_FALSE(want.empty()) << "missing golden file " << golden_path;
  EXPECT_EQ(got, want) << "actual:\n" << got;
}

// The graded-homework PLA shape: k cubes of two literals over disjoint
// variables (2k + 2 inputs, shuffled) plus 1-4 rows contained in them.
Cover disjoint_support_cover(int k, util::Rng& rng) {
  const int n = 2 * k + 2;
  std::vector<int> vars(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) vars[static_cast<std::size_t>(v)] = v;
  rng.shuffle(vars);
  Cover f(n);
  for (int g = 0; g < k; ++g) {
    Cube c(n);
    for (int t = 0; t < 2; ++t)
      c.set_code(vars[static_cast<std::size_t>(2 * g + t)],
                 rng.next_bool() ? cubes::Pcn::kPos : cubes::Pcn::kNeg);
    f.add(std::move(c));
  }
  const auto contained = 1 + static_cast<int>(rng.next_below(4));
  for (int e = 0; e < contained; ++e) {
    Cube c = f.cube(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(k))));
    const int v = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (c.code(v) == cubes::Pcn::kDontCare)
      c.set_code(v, rng.next_bool() ? cubes::Pcn::kPos : cubes::Pcn::kNeg);
    f.add(std::move(c));
  }
  return f;
}

// `k` cubes of 1-`max_lits` literals each, at random positions of `n`
// variables: sparse enough that wide covers keep small complements.
Cover sparse_cover(int n, int k, int max_lits, util::Rng& rng) {
  Cover f(n);
  for (int i = 0; i < k; ++i) {
    Cube c(n);
    const auto lits = 1 + rng.next_below(static_cast<std::uint64_t>(max_lits));
    for (std::uint64_t l = 0; l < lits; ++l)
      c.set_code(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n))),
                 rng.next_bool() ? cubes::Pcn::kPos : cubes::Pcn::kNeg);
    f.add(std::move(c));
  }
  return f;
}

// URP kernel golden: per seeded stream of (f, dc) pairs, one digest per
// kernel over every case's output bytes
// (tests/data/golden/urp_digests.txt; L2L_UPDATE_GOLDEN=1 regenerates).
// complement() and reduce() order their cubes by the split choice and the
// merge order, so the digests pin those orders too, not just the
// functions. The streams: random covers of 2-16 variables, the
// disjoint-support homework shape for k = 5-8, and covers of 65-100
// variables, whose cubes keep their words on the heap.
TEST(UrpGolden, KernelsMatchGolden) {
  struct Stream {
    const char* name;
    std::uint64_t seed;
    int cases;
    std::function<std::pair<Cover, Cover>(int, util::Rng&)> make;
  };
  const std::vector<Stream> streams = {
      {"random", 291, 600,
       [](int t, util::Rng& rng) {
         const int n = 2 + t % 15;
         const int lit_pct = 20 + static_cast<int>(rng.next_below(60));
         auto on = random_cover_density(
             n, 1 + static_cast<int>(rng.next_below(12)), lit_pct, rng);
         auto dc = random_cover_density(
             n, static_cast<int>(rng.next_below(3)), lit_pct, rng);
         return std::make_pair(std::move(on), std::move(dc));
       }},
      {"disjoint", 292, 48,
       [](int t, util::Rng& rng) {
         auto on = disjoint_support_cover(5 + t % 4, rng);
         const int n = on.num_vars();
         return std::make_pair(std::move(on), Cover(n));
       }},
      {"wide", 293, 120,
       [](int t, util::Rng& rng) {
         const int n = 65 + static_cast<int>(rng.next_below(36));
         auto on = sparse_cover(n, 1 + t % 7, 4, rng);
         auto dc = sparse_cover(n, static_cast<int>(rng.next_below(2)), 3, rng);
         return std::make_pair(std::move(on), std::move(dc));
       }},
  };
  std::string got;
  for (const auto& s : streams) {
    util::Rng rng(s.seed);
    std::string comp, scc, taut, contains, red, mini;
    for (int t = 0; t < s.cases; ++t) {
      const auto [on, dc] = s.make(t, rng);
      const Cover f = on | dc;
      const Cover c = cubes::complement(f);
      comp += c.to_string() + ";";
      for (const Cover* g : {&on, &f, &c}) {
        const auto sc = cubes::sccc(*g);
        scc += (sc ? sc->to_string() : "none") + ";";
      }
      // f + f' is a tautology; without one of the complement's cubes it
      // usually is not.
      const Cover whole = f | c;
      Cover holed = f;
      for (int i = 1; i < c.size(); ++i) holed.add(c.cube(i));
      for (const Cover* g : {&on, &f, &whole, static_cast<const Cover*>(&holed)})
        taut += cubes::is_tautology(*g) ? '1' : '0';
      const Cover m = minimize(on, dc);
      // Contained (the minimized cubes), disjoint (the complement's) and
      // random sparse cubes.
      const Cover probes = m | c | sparse_cover(f.num_vars(), 4, 3, rng);
      for (const auto& p : probes.cubes())
        contains += cubes::cover_contains_cube(f, p) ? '1' : '0';
      red += reduce(on, dc).to_string() + ";";
      mini += m.to_string() + ";";
    }
    for (const auto& [kernel, bytes] :
         {std::pair<const char*, const std::string&>{"complement", comp},
          {"sccc", scc},
          {"is_tautology", taut},
          {"cover_contains_cube", contains},
          {"reduce", red},
          {"minimize", mini}})
      got += util::format("%s %s cases=%d bytes=%zu %s\n", s.name, kernel,
                          s.cases, bytes.size(),
                          cache::digest_bytes(bytes).hex().c_str());
  }
  expect_golden("urp_digests.txt", got);
}

TEST(Minimize, TextbookExamples) {
  // f = a'b' + a'b + ab' = a' + b'  (2 cubes, 2 literals)
  const auto f = Cover::parse(2, "00\n01\n10\n");
  const auto m = minimize(f);
  EXPECT_EQ(m.size(), 2);
  EXPECT_EQ(m.num_literals(), 2);
  EXPECT_TRUE(cubes::covers_equal(m, f));

  // Full cover of 2 vars -> single universal cube.
  const auto g = Cover::parse(2, "00\n01\n10\n11\n");
  const auto mg = minimize(g);
  EXPECT_EQ(mg.size(), 1);
  EXPECT_TRUE(mg.cube(0).is_universal());
}

TEST(Minimize, UsesDontCares) {
  // ON = {11}, DC = {10, 01}: minimal result is a single-literal cube.
  const auto on = Cover::parse(2, "11\n");
  const auto dc = Cover::parse(2, "10\n01\n");
  const auto m = minimize(on, dc);
  EXPECT_EQ(m.size(), 1);
  EXPECT_EQ(m.cube(0).num_literals(), 1);
  EXPECT_TRUE(is_legal_implementation(m, on, dc));
}

TEST(Minimize, LegalAndNeverWorseRandomized) {
  util::Rng rng(54);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(3));
    const auto f = random_cover(n, 2 + static_cast<int>(rng.next_below(6)), rng);
    if (f.empty()) continue;
    const auto dc = random_cover(n, static_cast<int>(rng.next_below(3)), rng);
    MinimizeStats stats;
    const auto m = minimize(f, dc, {}, &stats);
    EXPECT_TRUE(is_legal_implementation(m, f, dc))
        << "F:\n" << f.to_string() << "DC:\n" << dc.to_string();
    EXPECT_LE(m.size(), stats.initial_cubes);
    EXPECT_GE(stats.iterations, 1);
  }
}

TEST(Minimize, EmptyAndTautology) {
  EXPECT_TRUE(minimize(Cover(3)).empty());
  const auto taut = minimize(Cover::universal(3));
  EXPECT_EQ(taut.size(), 1);
  EXPECT_TRUE(taut.cube(0).is_universal());
}

TEST(Qm, AllPrimesOfXor) {
  // XOR has exactly 2 primes (the two minterm cubes) in 2 vars.
  const auto f = Cover::parse(2, "01\n10\n");
  const auto primes = all_primes(f, Cover(2));
  EXPECT_EQ(primes.size(), 2u);
}

TEST(Qm, AllPrimesTextbook) {
  // f(a,b,c) = sum m(0,1,2,5,6,7): classic cyclic function, 6 primes.
  Cover f(3);
  for (const std::uint64_t m : {0, 1, 2, 5, 6, 7}) {
    Cube c(3);
    for (int v = 0; v < 3; ++v)
      c.set_code(v, ((m >> v) & 1) ? cubes::Pcn::kPos : cubes::Pcn::kNeg);
    f.add(std::move(c));
  }
  const auto primes = all_primes(f, Cover(3));
  EXPECT_EQ(primes.size(), 6u);
  // Exact cover of the cycle needs 3 cubes.
  ExactStats stats;
  const auto exact = exact_minimize(f, Cover(3), &stats);
  EXPECT_EQ(exact.size(), 3);
  EXPECT_TRUE(cubes::covers_equal(exact, f));
  EXPECT_GT(stats.branch_nodes, 0);  // the cyclic core forced branching
}

TEST(Qm, PrimesAreActuallyPrime) {
  util::Rng rng(55);
  for (int trial = 0; trial < 20; ++trial) {
    const auto f = random_cover(4, 4, rng);
    if (f.empty()) continue;
    const auto primes = all_primes(f, Cover(4));
    Cover pc(4, primes);
    EXPECT_TRUE(all_cubes_prime(pc, f, Cover(4)));
  }
}

TEST(Qm, ExactMatchesFunctionRandomized) {
  util::Rng rng(56);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 3 + static_cast<int>(rng.next_below(2));
    const auto ft = TruthTable::random(n, rng);
    const auto f = Cover::from_truth_table(ft);
    const auto m = exact_minimize(f);
    EXPECT_EQ(m.to_truth_table(), ft);
  }
}

TEST(Qm, ExactNeverWorseThanHeuristic) {
  util::Rng rng(57);
  for (int trial = 0; trial < 20; ++trial) {
    const auto ft = TruthTable::random(4, rng);
    const auto f = Cover::from_truth_table(ft);
    if (f.empty()) continue;
    const auto heuristic = minimize(f);
    const auto exact = exact_minimize(f);
    EXPECT_LE(exact.size(), heuristic.size());
  }
}

TEST(Qm, ExactWithDontCares) {
  const auto on = Cover::parse(3, "111\n");
  const auto dc = Cover::parse(3, "110\n101\n011\n");
  const auto m = exact_minimize(on, dc);
  // With those DCs, a single 1-literal or 2-literal cube suffices.
  EXPECT_EQ(m.size(), 1);
  EXPECT_TRUE(is_legal_implementation(m, on, dc));
}

TEST(Pla, ParseBasic) {
  const auto pla = parse_pla(
      ".i 3\n.o 2\n.ilb a b c\n.ob f g\n"
      "11- 10\n--1 01\n1-1 1-\n.e\n");
  EXPECT_EQ(pla.num_inputs, 3);
  EXPECT_EQ(pla.num_outputs(), 2);
  EXPECT_EQ(pla.input_names[1], "b");
  EXPECT_EQ(pla.outputs[0].name, "f");
  EXPECT_EQ(pla.outputs[0].on.size(), 2);  // "11- 10" and "1-1 1-"
  EXPECT_EQ(pla.outputs[1].on.size(), 1);
  EXPECT_EQ(pla.outputs[1].dc.size(), 1);  // "1-1 1-" marks DC for output 1
}

TEST(Pla, ParseErrors) {
  EXPECT_THROW(parse_pla("11 1\n"), std::invalid_argument);
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n111 1\n"), std::invalid_argument);
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n11 11\n"), std::invalid_argument);
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n11 x\n"), std::invalid_argument);
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n.bogus\n"), std::invalid_argument);
}

TEST(Pla, WriteParseRoundTrip) {
  const auto pla = parse_pla(".i 2\n.o 1\n11 1\n0- 1\n10 -\n.e\n");
  const auto again = parse_pla(write_pla(pla));
  EXPECT_EQ(again.num_inputs, 2);
  ASSERT_EQ(again.num_outputs(), 1);
  EXPECT_TRUE(cubes::covers_equal(again.outputs[0].on, pla.outputs[0].on));
  EXPECT_TRUE(cubes::covers_equal(again.outputs[0].dc, pla.outputs[0].dc));
}

TEST(Pla, MinimizeWholeFile) {
  // Minimize each output of a small PLA and verify legality.
  const auto pla = parse_pla(
      ".i 3\n.o 2\n"
      "000 10\n001 10\n010 10\n101 01\n111 01\n110 0-\n.e\n");
  for (const auto& out : pla.outputs) {
    const auto m = minimize(out.on, out.dc);
    EXPECT_TRUE(is_legal_implementation(m, out.on, out.dc));
    EXPECT_LE(m.size(), out.on.size());
  }
}

// Property sweep: heuristic and exact minimization agree with the original
// function for every arity 2..5 on random dense/sparse inputs.
class MinimizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(MinimizeSweep, HeuristicPreservesFunction) {
  const int n = GetParam();
  util::Rng rng(500 + static_cast<std::uint64_t>(n));
  for (int trial = 0; trial < 15; ++trial) {
    const auto ft = TruthTable::random(n, rng);
    const auto f = Cover::from_truth_table(ft);
    EXPECT_EQ(minimize(f).to_truth_table(), ft);
  }
}

TEST_P(MinimizeSweep, SinglePassAblationStillLegal) {
  const int n = GetParam();
  util::Rng rng(600 + static_cast<std::uint64_t>(n));
  MinimizeOptions opt;
  opt.single_pass = true;
  for (int trial = 0; trial < 10; ++trial) {
    const auto ft = TruthTable::random(n, rng);
    const auto f = Cover::from_truth_table(ft);
    const auto m = minimize(f, Cover(n), opt, nullptr);
    EXPECT_EQ(m.to_truth_table(), ft);
  }
}

INSTANTIATE_TEST_SUITE_P(Arity, MinimizeSweep, ::testing::Range(2, 6));

}  // namespace
}  // namespace l2l::espresso
