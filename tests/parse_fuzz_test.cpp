// Seeded mutation fuzzer for parse agreement (ctest label `fuzz`). Each
// input of the shared corpus (parse_corpus.hpp) is mutated by
// deterministic byte flips, truncations and line splices; every mutant
// must satisfy:
//
//   1. nothing throws out of lint or sema;
//   2. lint reports no error iff the engine accepts (DIMACS, PLA, BLIF
//      and routing problems against their parsers, placement uploads
//      against the grader's legality verdict);
//   3. sema is empty whenever the DIMACS or PLA engine rejects (the BLIF
//      pass reads the name graph on purpose and explains rejected
//      netlists);
//   4. cached and uncached facade results are byte-identical.
//
// A failure prints the mutant; minimize it by hand and add it to
// tests/data/hostile/ with a README row.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "api/espresso.hpp"
#include "api/grade.hpp"
#include "api/sat.hpp"
#include "cache/cache.hpp"
#include "espresso/pla.hpp"
#include "grader/place_grader.hpp"
#include "lint/lint.hpp"
#include "network/blif.hpp"
#include "parse_corpus.hpp"
#include "route/solution.hpp"
#include "sat/dimacs.hpp"
#include "sema/sema.hpp"

namespace l2l {
namespace {

using parse_corpus::kMaxBytes;
using parse_corpus::kMutants;
/// Facade round trips only on small mutants: they solve and minimize.
constexpr std::size_t kFacadeBytes = 1024;

bool accepts(const std::function<void()>& parse) {
  try {
    parse();
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

std::string diagnostics_text(const std::vector<util::Diagnostic>& diags) {
  return util::render_diagnostics(diags);
}

std::string render(const api::SatResult& r) {
  return r.output + "|" + std::to_string(r.exit_code) + "|" +
         r.status.to_string();
}
std::string render(const api::EspressoResult& r) {
  return r.output + "|" + r.stats_output + "|" + std::to_string(r.exit_code) +
         "|" + r.status.to_string();
}
std::string render(const api::PlaceGradeResult& r) {
  const auto& g = r.grade;
  return util::format("%d|%.17g|%.17g|%.17g|", g.legal ? 1 : 0, g.hpwl,
                      g.quality_ratio, g.score) +
         g.reason + "|" + g.report + "|" + diagnostics_text(g.diagnostics) +
         "|" + diagnostics_text(g.lint) + "|" + diagnostics_text(g.sema);
}
std::string render(const api::RouteGradeResult& r) {
  const auto& g = r.grade;
  std::string out = util::format("%d|%d|%d|%d|%.17g|", g.legal_nets,
                                 g.total_nets, g.total_wirelength,
                                 g.total_vias, g.score);
  for (const auto& n : g.nets)
    out += util::format("%d:%d:%d:%d:", n.net_id, n.legal ? 1 : 0,
                        n.wirelength, n.vias) +
           n.reason + ";";
  return out + "|" + g.report + "|" + diagnostics_text(g.diagnostics) + "|" +
         diagnostics_text(g.lint) + "|" + diagnostics_text(g.sema) + "|" +
         g.status.to_string();
}

/// Oracle 4: an uncached call, a cold cached call and a warm (hit) call
/// render identically.
template <typename Request, typename Call>
void expect_cache_transparent(Request req, Call call, const std::string& what) {
  req.use_cache = false;
  const std::string direct = render(call(req));
  req.use_cache = true;
  const std::string cold = render(call(req));
  const auto warm = call(req);
  EXPECT_TRUE(warm.cached) << what;
  EXPECT_EQ(cold, direct) << what;
  EXPECT_EQ(render(warm), direct) << what;
}

class ParseFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    cache::set_enabled(true);
    cache::Cache::global().clear();
  }
  void TearDown() override { cache::Cache::global().clear(); }
};

TEST_F(ParseFuzz, MutantsKeepLintSemaAndEnginesInAgreement) {
  const auto files = parse_corpus::file_corpus();
  util::Rng rng(0x5eed);
  int checked = 0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const auto& [name, text] = files[i];
    if (text.size() > kMaxBytes) continue;
    const auto& donor = files[(i + 1) % files.size()].text;
    const lint::Format format = lint::lint_text(name, text).format;
    for (int m = 0; m < kMutants; ++m) {
      const std::string mutant = parse_corpus::mutate(text, donor, rng);
      const std::string what = name + " mutant " + std::to_string(m) +
                               ":\n" + mutant;
      // The original's format is forced: a mutant may no longer sniff.
      lint::LintOptions opt;
      opt.format = format;
      lint::FileReport lr, sr;
      ASSERT_NO_THROW(lr = lint::lint_text(name, mutant, opt)) << what;
      ASSERT_NO_THROW(sr = sema::analyze_text(name, mutant, format)) << what;
      ++checked;
      if (format == lint::Format::kCnf) {
        const bool ok = accepts([&] { sat::parse_dimacs(mutant); });
        EXPECT_EQ(lr.errors() == 0, ok) << what;
        if (!ok) {
          EXPECT_TRUE(sr.findings.empty()) << what;
        }
        if (ok && mutant.size() <= kFacadeBytes) {
          api::SatRequest req;
          req.dimacs = mutant;
          req.prop_limit = 100000;
          expect_cache_transparent(req, api::solve_sat, what);
        }
      } else if (format == lint::Format::kPla) {
        const bool ok = accepts([&] { espresso::parse_pla(mutant); });
        EXPECT_EQ(lr.errors() == 0, ok) << what;
        if (!ok) {
          EXPECT_TRUE(sr.findings.empty()) << what;
        }
        if (mutant.size() <= kFacadeBytes) {
          api::EspressoRequest req;
          req.pla = mutant;
          expect_cache_transparent(req, api::minimize_pla, what);
        }
      } else if (format == lint::Format::kBlif) {
        const bool ok = accepts([&] { network::parse_blif(mutant); });
        EXPECT_EQ(lr.errors() == 0, ok) << what;
      } else if (format == lint::Format::kRouteProblem) {
        const bool ok = accepts([&] { route::parse_problem(mutant); });
        EXPECT_EQ(lr.errors() == 0, ok) << what;
      }
    }
  }
  EXPECT_GT(checked, 1000);
}

TEST_F(ParseFuzz, MutatedProblemsParseLikeTheirLint) {
  // A stream of its own, so the corpus mutants above stay the ones the
  // checker oracle replays.
  util::Rng rng(0x9b0b);
  std::vector<std::string> problems;
  for (const std::uint64_t seed : {1u, 2u, 3u})
    problems.push_back(
        route::write_problem(parse_corpus::route_fixture(seed).problem));
  for (std::size_t i = 0; i < problems.size(); ++i) {
    for (int m = 0; m < kMutants; ++m) {
      const std::string mutant = parse_corpus::mutate(
          problems[i], problems[(i + 1) % problems.size()], rng);
      const std::string what = "problem" + std::to_string(i + 1) +
                               " mutant " + std::to_string(m) + ":\n" +
                               mutant;
      std::vector<lint::Finding> lint;
      ASSERT_NO_THROW(lint = lint::lint_route_problem(mutant)) << what;
      int errors = 0;
      for (const auto& f : lint)
        errors += f.severity == util::Severity::kError ? 1 : 0;
      EXPECT_EQ(errors == 0, accepts([&] { route::parse_problem(mutant); }))
          << what;
    }
  }
}

TEST_F(ParseFuzz, MutatedUploadsGradeLikeTheirLint) {
  util::Rng rng(0xf00d);
  const auto pfx = parse_corpus::place_fixture(7);
  const auto uploads = parse_corpus::place_uploads(pfx, 7);
  const lint::PlacementSpec spec{pfx.problem.num_cells,
                                 pfx.grid.sites_per_row, pfx.grid.rows};
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    for (int m = 0; m < kMutants; ++m) {
      const std::string mutant = parse_corpus::mutate(
          uploads[i].text, uploads[(i + 1) % uploads.size()].text, rng);
      const std::string what = "place/" + uploads[i].name + " mutant " +
                               std::to_string(m) + ":\n" + mutant;
      std::vector<lint::Finding> lint;
      ASSERT_NO_THROW(lint = lint::lint_placement(mutant, spec)) << what;
      const auto legal = grader::grade_placement_text(
                             pfx.problem, pfx.grid, mutant, pfx.reference_hpwl)
                             .legal;
      int errors = 0;
      for (const auto& f : lint)
        errors += f.severity == util::Severity::kError ? 1 : 0;
      EXPECT_EQ(errors == 0, legal) << what;
      api::PlaceGradeRequest req;
      req.submission = mutant;
      req.reference_hpwl = pfx.reference_hpwl;
      expect_cache_transparent(
          req,
          [&](const api::PlaceGradeRequest& r) {
            return api::grade_place_submission(pfx.problem, pfx.grid, r);
          },
          what);
    }
  }

  const auto rfx = parse_corpus::route_fixture(7);
  const auto routes = parse_corpus::route_uploads(rfx);
  for (std::size_t i = 0; i < routes.size(); ++i) {
    for (int m = 0; m < kMutants; ++m) {
      const std::string mutant = parse_corpus::mutate(
          routes[i].text, routes[(i + 1) % routes.size()].text, rng);
      const std::string what = "route/" + routes[i].name + " mutant " +
                               std::to_string(m) + ":\n" + mutant;
      ASSERT_NO_THROW(lint::lint_route_solution(mutant, &rfx.problem)) << what;
      api::RouteGradeRequest req;
      req.submission = mutant;
      expect_cache_transparent(
          req,
          [&](const api::RouteGradeRequest& r) {
            return api::grade_route_submission(rfx.problem, r);
          },
          what);
    }
  }
}

}  // namespace
}  // namespace l2l
