#include <gtest/gtest.h>

#include "cubes/cover.hpp"
#include "cubes/cube.hpp"
#include "cubes/urp.hpp"
#include "tt/truth_table.hpp"
#include "util/rng.hpp"

namespace l2l::cubes {
namespace {

using tt::TruthTable;

// Build a random cover with `k` random cubes over n variables.
Cover random_cover(int n, int k, util::Rng& rng) {
  Cover f(n);
  for (int i = 0; i < k; ++i) {
    Cube c(n);
    for (int v = 0; v < n; ++v) {
      switch (rng.next_below(3)) {
        case 0: c.set_code(v, Pcn::kNeg); break;
        case 1: c.set_code(v, Pcn::kPos); break;
        default: break;  // don't care
      }
    }
    f.add(std::move(c));
  }
  return f;
}

TEST(Cube, ParseAndPrint) {
  const auto c = Cube::parse("1-0");
  EXPECT_EQ(c.to_string(), "1-0");
  EXPECT_EQ(c.code(0), Pcn::kPos);
  EXPECT_EQ(c.code(1), Pcn::kDontCare);
  EXPECT_EQ(c.code(2), Pcn::kNeg);
  EXPECT_EQ(c.num_literals(), 2);
  EXPECT_THROW(Cube::parse("1x"), std::invalid_argument);
}

TEST(Cube, UniversalAndEmpty) {
  Cube u(3);
  EXPECT_TRUE(u.is_universal());
  EXPECT_FALSE(u.is_empty());
  u.set_code(1, Pcn::kEmpty);
  EXPECT_TRUE(u.is_empty());
}

TEST(Cube, IntersectOppositePhasesIsEmpty) {
  const auto a = Cube::parse("1--");
  const auto b = Cube::parse("0--");
  EXPECT_TRUE(a.intersect(b).is_empty());
  EXPECT_EQ(a.distance(b), 1);
}

TEST(Cube, IntersectMatchesSetIntersection) {
  util::Rng rng(10);
  for (int trial = 0; trial < 50; ++trial) {
    Cover fa = random_cover(4, 1, rng);
    Cover fb = random_cover(4, 1, rng);
    const Cube& a = fa.cube(0);
    const Cube& b = fb.cube(0);
    const Cube c = a.intersect(b);
    for (std::uint64_t m = 0; m < 16; ++m)
      EXPECT_EQ(c.eval(m), a.eval(m) && b.eval(m));
  }
}

TEST(Cube, ContainsIffPointwise) {
  util::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    Cover fa = random_cover(4, 1, rng);
    Cover fb = random_cover(4, 1, rng);
    const Cube& a = fa.cube(0);
    const Cube& b = fb.cube(0);
    bool pointwise = true;
    for (std::uint64_t m = 0; m < 16; ++m)
      if (b.eval(m) && !a.eval(m)) pointwise = false;
    EXPECT_EQ(a.contains(b), pointwise) << a.to_string() << " vs " << b.to_string();
  }
}

TEST(Cube, ConsensusOnlyAtDistanceOne) {
  const auto a = Cube::parse("1-1");
  const auto b = Cube::parse("0-1");
  const auto c = a.consensus(b);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->to_string(), "--1");
  // Distance 0 and 2 both fail.
  EXPECT_FALSE(Cube::parse("1--").consensus(Cube::parse("-1-")).has_value());
  EXPECT_FALSE(Cube::parse("11-").consensus(Cube::parse("00-")).has_value());
}

TEST(Cube, ConsensusIsImpliedByUnion) {
  // Consensus theorem: xy + x'z implies xy + x'z + yz; the consensus cube
  // is contained in the union of the two parents.
  util::Rng rng(12);
  for (int trial = 0; trial < 100; ++trial) {
    Cover f = random_cover(5, 2, rng);
    if (f.size() != 2) continue;
    const auto c = f.cube(0).consensus(f.cube(1));
    if (!c) continue;
    for (std::uint64_t m = 0; m < 32; ++m) {
      if (c->eval(m)) {
        EXPECT_TRUE(f.cube(0).eval(m) || f.cube(1).eval(m));
      }
    }
  }
}

TEST(Cube, CofactorDropsLiteral) {
  const auto c = Cube::parse("10-");
  const auto c1 = c.cofactor(0, true);
  ASSERT_TRUE(c1.has_value());
  EXPECT_EQ(c1->to_string(), "-0-");
  EXPECT_FALSE(c.cofactor(0, false).has_value());
  const auto c2 = c.cofactor(2, true);  // absent variable: unchanged cube
  ASSERT_TRUE(c2.has_value());
  EXPECT_EQ(c2->to_string(), "10-");
}

TEST(Cover, ParseAndEval) {
  const auto f = Cover::parse(3, "1-0\n-11\n");
  EXPECT_EQ(f.size(), 2);
  EXPECT_TRUE(f.eval(0b001));   // 1-0 matches x0=1,x2=0
  EXPECT_TRUE(f.eval(0b110));   // -11 matches x1=1,x2=1
  EXPECT_FALSE(f.eval(0b000));
}

TEST(Cover, FromTruthTableRoundTrip) {
  util::Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const auto f = TruthTable::random(4, rng);
    EXPECT_EQ(Cover::from_truth_table(f).to_truth_table(), f);
  }
}

TEST(Cover, AndOrMatchOracle) {
  util::Rng rng(14);
  for (int trial = 0; trial < 30; ++trial) {
    const auto f = random_cover(4, 3, rng);
    const auto g = random_cover(4, 3, rng);
    EXPECT_EQ((f | g).to_truth_table(), f.to_truth_table() | g.to_truth_table());
    EXPECT_EQ((f & g).to_truth_table(), f.to_truth_table() & g.to_truth_table());
  }
}

TEST(Cover, CofactorMatchesOracle) {
  util::Rng rng(15);
  for (int trial = 0; trial < 30; ++trial) {
    const auto f = random_cover(4, 4, rng);
    for (int v = 0; v < 4; ++v) {
      EXPECT_EQ(f.cofactor(v, true).to_truth_table(),
                f.to_truth_table().cofactor(v, true));
      EXPECT_EQ(f.cofactor(v, false).to_truth_table(),
                f.to_truth_table().cofactor(v, false));
    }
  }
}

TEST(Cover, RemoveContainedCubesPreservesFunction) {
  util::Rng rng(16);
  for (int trial = 0; trial < 30; ++trial) {
    auto f = random_cover(5, 6, rng);
    const auto before = f.to_truth_table();
    f.remove_contained_cubes();
    EXPECT_EQ(f.to_truth_table(), before);
  }
}

TEST(Cover, RemoveContainedCubesDropsDuplicates) {
  auto f = Cover::parse(3, "1-0\n1-0\n110\n");
  f.remove_contained_cubes();
  EXPECT_EQ(f.size(), 1);  // 110 is inside 1-0; duplicate dropped
  EXPECT_EQ(f.cube(0).to_string(), "1-0");
}

// ---- URP -------------------------------------------------------------

TEST(Urp, TautologyBasics) {
  EXPECT_FALSE(is_tautology(Cover(3)));                       // constant 0
  EXPECT_TRUE(is_tautology(Cover::universal(3)));             // constant 1
  EXPECT_TRUE(is_tautology(Cover::parse(1, "0\n1\n")));       // x + x'
  EXPECT_FALSE(is_tautology(Cover::parse(2, "1-\n01\n")));    // misses 00
  EXPECT_TRUE(is_tautology(Cover::parse(2, "1-\n01\n-0\n")));
}

TEST(Urp, TautologyMatchesOracleRandomized) {
  util::Rng rng(17);
  int taut_seen = 0;
  for (int trial = 0; trial < 200; ++trial) {
    // Mix of wide cubes to make tautologies reasonably likely.
    const int k = 1 + static_cast<int>(rng.next_below(6));
    const auto f = random_cover(4, k, rng);
    const bool oracle = f.to_truth_table().is_constant_one();
    EXPECT_EQ(is_tautology(f), oracle) << f.to_string();
    taut_seen += oracle;
  }
  EXPECT_GT(taut_seen, 0);  // the sweep actually exercised both outcomes
}

TEST(Urp, IsUnate) {
  EXPECT_TRUE(is_unate(Cover::parse(3, "1-0\n1--\n--0\n")));
  EXPECT_FALSE(is_unate(Cover::parse(3, "1--\n0--\n")));
  EXPECT_TRUE(is_unate(Cover(3)));
}

TEST(Urp, SelectSplitVarPrefersBinate) {
  // x0 appears in both phases; x1 only positively.
  const auto f = Cover::parse(2, "1-\n0-\n-1\n");
  EXPECT_EQ(select_split_var(f), 0);
  EXPECT_EQ(select_split_var(Cover(2)), -1);
}

TEST(Urp, ComplementMatchesOracle) {
  util::Rng rng(18);
  for (int trial = 0; trial < 100; ++trial) {
    const int k = static_cast<int>(rng.next_below(6));
    const auto f = random_cover(4, k, rng);
    EXPECT_EQ(complement(f).to_truth_table(), ~f.to_truth_table())
        << f.to_string();
  }
}

TEST(Urp, ComplementEdgeCases) {
  EXPECT_TRUE(is_tautology(complement(Cover(2))));
  EXPECT_TRUE(complement(Cover::universal(2)).empty());
  // Single cube De Morgan: (x0 x1')' = x0' + x1.
  const auto f = complement(Cover::parse(2, "10\n"));
  EXPECT_EQ(f.to_truth_table(), ~Cover::parse(2, "10\n").to_truth_table());
  EXPECT_EQ(f.size(), 2);
}

TEST(Urp, SharpMatchesOracle) {
  util::Rng rng(19);
  for (int trial = 0; trial < 50; ++trial) {
    const auto f = random_cover(4, 3, rng);
    const auto g = random_cover(4, 3, rng);
    EXPECT_EQ(sharp(f, g).to_truth_table(),
              f.to_truth_table() & ~g.to_truth_table());
  }
}

TEST(Urp, XorMatchesOracle) {
  util::Rng rng(20);
  for (int trial = 0; trial < 50; ++trial) {
    const auto f = random_cover(3, 2, rng);
    const auto g = random_cover(3, 2, rng);
    EXPECT_EQ(exclusive_or(f, g).to_truth_table(),
              f.to_truth_table() ^ g.to_truth_table());
  }
}

TEST(Urp, QuantifiersMatchOracle) {
  util::Rng rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    const auto f = random_cover(4, 3, rng);
    for (int v = 0; v < 4; ++v) {
      EXPECT_EQ(exists(f, v).to_truth_table(), f.to_truth_table().exists(v));
      EXPECT_EQ(forall(f, v).to_truth_table(), f.to_truth_table().forall(v));
    }
  }
}

TEST(Urp, BooleanDifferenceMatchesOracle) {
  util::Rng rng(22);
  for (int trial = 0; trial < 30; ++trial) {
    const auto f = random_cover(3, 3, rng);
    for (int v = 0; v < 3; ++v)
      EXPECT_EQ(boolean_difference(f, v).to_truth_table(),
                f.to_truth_table().boolean_difference(v));
  }
}

TEST(Urp, CoverContainsCube) {
  const auto f = Cover::parse(3, "1--\n-1-\n");
  EXPECT_TRUE(cover_contains_cube(f, Cube::parse("11-")));
  EXPECT_TRUE(cover_contains_cube(f, Cube::parse("1-0")));
  EXPECT_FALSE(cover_contains_cube(f, Cube::parse("--1")));
}

TEST(Urp, CoversEqualUpToRepresentation) {
  // xy + x'y + xz == y(x+x') + xz == y + xz
  const auto f = Cover::parse(3, "11-\n01-\n1-1\n");
  const auto g = Cover::parse(3, "-1-\n1-1\n");
  EXPECT_TRUE(covers_equal(f, g));
  EXPECT_FALSE(covers_equal(f, Cover::parse(3, "-1-\n")));
}

TEST(Urp, SimplifyPreservesFunctionAndNeverGrows) {
  util::Rng rng(23);
  for (int trial = 0; trial < 60; ++trial) {
    const int k = 1 + static_cast<int>(rng.next_below(8));
    const auto f = random_cover(5, k, rng);
    const auto s = simplify(f);
    EXPECT_EQ(s.to_truth_table(), f.to_truth_table()) << f.to_string();
    EXPECT_LE(s.num_literals(), f.num_literals());
  }
}

TEST(Urp, SimplifyMergesComplementaryPair) {
  // x y + x' y should simplify to y.
  const auto s = simplify(Cover::parse(2, "11\n01\n"));
  EXPECT_EQ(s.size(), 1);
  EXPECT_EQ(s.cube(0).to_string(), "-1");
}

// The smallest cube holding every minterm of n <= 10 variables that f
// misses, by enumeration; nullopt when f misses none.
std::optional<Cube> sccc_by_minterms(const Cover& f) {
  const int n = f.num_vars();
  std::optional<Cube> out;
  for (std::uint64_t m = 0; m < (1ull << n); ++m) {
    if (f.eval(m)) continue;
    Cube point(n);
    for (int v = 0; v < n; ++v)
      point.set_code(v, ((m >> v) & 1) ? Pcn::kPos : Pcn::kNeg);
    if (out)
      out->or_with(point);
    else
      out = point;
  }
  return out;
}

TEST(Urp, ScccMatchesMintermOracle) {
  // Unate covers (one phase per variable) and binate ones, salted with
  // the cubes the unate terminal reads or must not trip on: duplicate
  // and contained one-literal cubes, universal cubes, and empty cubes
  // (which Cover drops, as it does everywhere).
  util::Rng rng(31);
  int unate = 0, none = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(10));
    const bool want_unate = trial % 2 == 0;
    std::vector<Pcn> phase(static_cast<std::size_t>(n));
    for (auto& p : phase) p = rng.next_bool() ? Pcn::kPos : Pcn::kNeg;
    auto literal = [&](int v) {
      if (want_unate) return phase[static_cast<std::size_t>(v)];
      return rng.next_bool() ? Pcn::kPos : Pcn::kNeg;
    };
    const int density = 15 + static_cast<int>(rng.next_below(50));
    std::vector<Cube> cubes;
    const int k = static_cast<int>(rng.next_below(9));
    for (int i = 0; i < k; ++i) {
      Cube c(n);
      for (int v = 0; v < n; ++v)
        if (static_cast<int>(rng.next_below(100)) < density)
          c.set_code(v, literal(v));
      cubes.push_back(std::move(c));
    }
    for (int extra = static_cast<int>(rng.next_below(4)); extra > 0; --extra) {
      const int v =
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      Cube c(n);
      switch (rng.next_below(5)) {
        case 0:  // a one-literal cube, twice
          c.set_code(v, literal(v));
          cubes.push_back(c);
          break;
        case 1:  // a one-literal cube and a cube it contains
          c.set_code(v, literal(v));
          if (n > 1) {
            Cube inner = c;
            const int w = (v + 1) % n;
            inner.set_code(w, literal(w));
            cubes.push_back(std::move(inner));
          }
          break;
        case 2:  // universal
          if (rng.next_below(4) != 0) continue;
          break;
        default:  // empty: a contradictory position
          c.set_code(v, Pcn::kEmpty);
          break;
      }
      cubes.insert(cubes.begin() + static_cast<std::ptrdiff_t>(rng.next_below(
                                       cubes.size() + 1)),
                   std::move(c));
    }
    const Cover f(n, std::move(cubes));
    const auto want = sccc_by_minterms(f);
    const auto got = sccc(f);
    ASSERT_EQ(got.has_value(), want.has_value()) << f.to_string();
    if (want) {
      EXPECT_EQ(*got, *want) << f.to_string() << "got " << got->to_string()
                             << " want " << want->to_string();
    }
    unate += is_unate(f);
    none += !want;
  }
  // The sweep saw both unate and binate covers, and tautologies.
  EXPECT_GT(unate, 1000);
  EXPECT_LT(unate, 3900);
  EXPECT_GT(none, 20);
}

// Parameterized property sweep: URP identities on random covers of
// every arity from 1..6.
class UrpPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(UrpPropertyTest, ComplementInvolution) {
  const int n = GetParam();
  util::Rng rng(100 + static_cast<std::uint64_t>(n));
  for (int trial = 0; trial < 20; ++trial) {
    const auto f = random_cover(n, 1 + static_cast<int>(rng.next_below(5)), rng);
    EXPECT_EQ(complement(complement(f)).to_truth_table(), f.to_truth_table());
  }
}

TEST_P(UrpPropertyTest, FOrNotFIsTautology) {
  const int n = GetParam();
  util::Rng rng(200 + static_cast<std::uint64_t>(n));
  for (int trial = 0; trial < 20; ++trial) {
    const auto f = random_cover(n, 1 + static_cast<int>(rng.next_below(5)), rng);
    EXPECT_TRUE(is_tautology(f | complement(f)));
  }
}

TEST_P(UrpPropertyTest, FAndNotFIsEmptyFunction) {
  const int n = GetParam();
  util::Rng rng(300 + static_cast<std::uint64_t>(n));
  for (int trial = 0; trial < 20; ++trial) {
    const auto f = random_cover(n, 1 + static_cast<int>(rng.next_below(5)), rng);
    EXPECT_TRUE((f & complement(f)).to_truth_table().is_constant_zero());
  }
}

TEST_P(UrpPropertyTest, ShannonExpansionHolds) {
  const int n = GetParam();
  util::Rng rng(400 + static_cast<std::uint64_t>(n));
  for (int trial = 0; trial < 10; ++trial) {
    const auto f = random_cover(n, 1 + static_cast<int>(rng.next_below(5)), rng);
    const auto ft = f.to_truth_table();
    for (int v = 0; v < n; ++v) {
      const auto x = TruthTable::variable(n, v);
      EXPECT_EQ((x & f.cofactor(v, true).to_truth_table()) |
                    (~x & f.cofactor(v, false).to_truth_table()),
                ft);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Arity, UrpPropertyTest, ::testing::Range(1, 7));

}  // namespace
}  // namespace l2l::cubes
