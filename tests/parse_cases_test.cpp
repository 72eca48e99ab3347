// One test per input that lint, sema and the engines used to read
// differently (tests/data/hostile/README.md, "disputed inputs"). Each
// asserts the resolved behaviour of all three readers together, now that
// they share one located parse per format.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <tuple>

#include "api/espresso.hpp"
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

std::string hostile(const char* name) {
  return parse_corpus::read_file(std::filesystem::path(L2L_TEST_DATA_DIR) /
                                 "hostile" / name);
}

std::string engine_error(const std::function<void()>& parse) {
  try {
    parse();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

bool has_finding(const lint::FileReport& fr, const char* rule, int line) {
  for (const auto& f : fr.findings)
    if (f.rule == rule && f.line == line) return true;
  return false;
}

struct Reads {
  lint::FileReport lint;
  lint::FileReport sema;
};

Reads read_all(const char* name) {
  const std::string text = hostile(name);
  return {lint::lint_text(name, text), sema::analyze_text(name, text)};
}

// ---- CNF ----------------------------------------------------------------

TEST(ParseCases, EmptyCnfHasNoProblemLineForAnyReader) {
  const auto r = read_all("empty.cnf");
  EXPECT_EQ(engine_error([] { sat::parse_dimacs(hostile("empty.cnf")); }),
            "DIMACS: missing problem line");
  EXPECT_TRUE(has_finding(r.lint, "L2L-C001", 0));
  EXPECT_EQ(r.lint.errors(), 1);
  EXPECT_TRUE(r.sema.findings.empty());
}

TEST(ParseCases, SecondProblemLineIsRejectedEverywhere) {
  const auto r = read_all("second_header.cnf");
  EXPECT_EQ(
      engine_error([] { sat::parse_dimacs(hostile("second_header.cnf")); }),
      "DIMACS line 3: second problem line");
  EXPECT_TRUE(has_finding(r.lint, "L2L-C001", 3));
  EXPECT_EQ(r.lint.errors(), 1);
  EXPECT_TRUE(r.sema.findings.empty()) << "no C103 notes on a broken file";
}

TEST(ParseCases, SatlibTrailerIsABadLiteralAndSemaStaysQuiet) {
  const auto r = read_all("satlib_trailer.cnf");
  EXPECT_EQ(
      engine_error([] { sat::parse_dimacs(hostile("satlib_trailer.cnf")); }),
      "DIMACS line 5: bad literal '%'");
  EXPECT_TRUE(has_finding(r.lint, "L2L-C002", 5));
  EXPECT_TRUE(r.sema.findings.empty());
}

TEST(ParseCases, ClauseCountMismatchGetsNoSemaContradiction) {
  const auto r = read_all("count_mismatch.cnf");
  EXPECT_EQ(
      engine_error([] { sat::parse_dimacs(hostile("count_mismatch.cnf")); }),
      "DIMACS line 3: header declares 5 clause(s) but the body has 2");
  EXPECT_TRUE(has_finding(r.lint, "L2L-C003", 3));
  EXPECT_TRUE(r.sema.findings.empty()) << "no C104 on a rejected file";
}

// ---- PLA ----------------------------------------------------------------

TEST(ParseCases, RowsAfterEndAreIgnoredByEveryReader) {
  const auto r = read_all("rows_after_end.pla");
  const auto pla = espresso::parse_pla(hostile("rows_after_end.pla"));
  ASSERT_EQ(pla.num_outputs(), 1);
  EXPECT_EQ(pla.outputs[0].on.size(), 1u);
  EXPECT_EQ(r.lint.errors(), 0);
  // .p 2 against the one row before .end: the row after it never counts.
  EXPECT_TRUE(has_finding(r.lint, "L2L-P007", 3));
  EXPECT_TRUE(r.sema.findings.empty()) << "no P101 for the row on line 6";
}

TEST(ParseCases, OutputsDeclaredBeforeInputsParse) {
  const auto r = read_all("o_before_i.pla");
  const auto pla = espresso::parse_pla(hostile("o_before_i.pla"));
  EXPECT_EQ(pla.num_inputs, 2);
  ASSERT_EQ(pla.num_outputs(), 1);
  EXPECT_EQ(pla.outputs[0].on.size(), 1u);
  api::EspressoRequest req;
  req.pla = hostile("o_before_i.pla");
  req.use_cache = false;
  EXPECT_EQ(api::minimize_pla(req).exit_code, 0);
  EXPECT_EQ(r.lint.errors(), 0);
  EXPECT_TRUE(r.sema.findings.empty());
}

TEST(ParseCases, HeaderChangedAfterRowsIsADefectNotAnInternalError) {
  // The cover arity can no longer change under the engine's feet: the
  // shared parse reports the redeclaration, so no reader gets as far as
  // Cover::add.
  const std::string text = ".i 2\n.o 1\n11 1\n.i 3\n111 1\n.e\n";
  const std::string what = engine_error([&] { espresso::parse_pla(text); });
  EXPECT_EQ(what, "PLA line 4: .i changes its count after cube rows");
  EXPECT_EQ(what.find("Cover::add"), std::string::npos);
  const auto fr = lint::lint_text("x.pla", text);
  EXPECT_TRUE(has_finding(fr, "L2L-P001", 4));
  EXPECT_TRUE(sema::analyze_text("x.pla", text).findings.empty());
}

TEST(ParseCases, TwoInAPlaneIsADontCareForEveryReader) {
  const auto r = read_all("two_in_plane.pla");
  const auto pla = espresso::parse_pla(hostile("two_in_plane.pla"));
  ASSERT_EQ(pla.num_outputs(), 1);
  EXPECT_EQ(pla.outputs[0].on.size(), 2u);
  EXPECT_EQ(r.lint.errors(), 0);
  EXPECT_TRUE(has_finding(r.lint, "L2L-P005", 4));  // "12" == "1-"
  // Sema reads "12" as the engine does, so the later copy is redundant.
  EXPECT_TRUE(has_finding(r.sema, "L2L-P101", 4));
}

TEST(ParseCases, SemaSharesTheEngineOutputCap) {
  const auto r = read_all("wide_outputs.pla");
  const auto pla = espresso::parse_pla(hostile("wide_outputs.pla"));
  EXPECT_EQ(pla.num_outputs(), 1100);
  EXPECT_EQ(r.lint.errors(), 0);
  EXPECT_TRUE(has_finding(r.sema, "L2L-P101", 4));
  EXPECT_TRUE(has_finding(r.sema, "L2L-P101", 5));
}

TEST(ParseCases, PastedJunkKeepsABoundedDefectList) {
  // Every token of this paste is a defect; the parse keeps the first
  // util::kMaxDefects, so lint and sema cost no more than the bytes.
  std::string cnf = "p cnf 1 1\n", pla = ".i 1\n.o 1\n";
  for (int k = 0; k < 3000; ++k) {
    cnf += "junk ";
    pla += "x 1\n";
  }
  EXPECT_EQ(sat::parse_dimacs_lenient(cnf).defects.size(), util::kMaxDefects);
  EXPECT_EQ(espresso::parse_pla_lenient(pla).defects.size(),
            util::kMaxDefects);
  EXPECT_EQ(lint::lint_text("x.cnf", cnf).errors(),
            static_cast<int>(util::kMaxDefects));
  EXPECT_TRUE(sema::analyze_text("x.pla", pla).findings.empty());
  // Every obstacle line of this one is junk.
  std::string problem = "grid 4 4 1\nobstacles 3000\n";
  for (int k = 0; k < 3000; ++k) problem += "junk\n";
  EXPECT_EQ(route::parse_problem_lenient(problem).defects.size(),
            util::kMaxDefects);
  EXPECT_EQ(lint::lint_text("x.problem", problem).errors(),
            static_cast<int>(util::kMaxDefects));
}

// ---- routing problems ---------------------------------------------------
// Lint has always called these errors, but the engine accepted them: the
// router then reported a net under an obstacle routed, and the grader
// failed legal routes of a net whose id another net shared.

TEST(ParseCases, PinOnAnObstacleIsRejectedLikeLintSays) {
  const std::string text =
      "grid 4 4 1\nobstacles 1\n(1 1 0)\nnets 1\nnet 0 2\n(1 1 0)\n"
      "(3 3 0)\n";
  EXPECT_THROW(route::parse_problem(text), std::invalid_argument);
  const auto fr = lint::lint_text("x.problem", text);
  EXPECT_TRUE(has_finding(fr, "L2L-R004", 6));
  EXPECT_EQ(fr.errors(), 1);
}

TEST(ParseCases, DuplicateNetIdIsRejectedLikeLintSays) {
  const std::string text =
      "grid 4 4 1\nobstacles 0\nnets 2\nnet 0 2\n(0 0 0)\n(3 0 0)\n"
      "net 0 2\n(0 3 0)\n(3 3 0)\n";
  EXPECT_THROW(route::parse_problem(text), std::invalid_argument);
  const auto fr = lint::lint_text("x.problem", text);
  EXPECT_TRUE(has_finding(fr, "L2L-R005", 7));
  EXPECT_EQ(fr.errors(), 1);
  // Repeats are found after the walk, yet take their place in file
  // order: the engine names this one before the off-grid pin on line 9.
  std::string off_grid = text;
  off_grid.replace(off_grid.rfind("(3 3 0)"), 7, "(4 3 0)");
  const auto parsed = route::parse_problem_lenient(off_grid);
  ASSERT_EQ(parsed.defects.size(), 2u);
  EXPECT_EQ(parsed.defects[0].kind,
            route::ProblemDefect::Kind::kDuplicateId);
  EXPECT_EQ(parsed.defects[1].line, 9);
}

// Two nets with a pin on one point: no route can give the point to both,
// so the grader scored the router's own answer 1 of 2 legal nets.
TEST(ParseCases, SharedPinCellIsRejectedLikeLintSays) {
  const std::string text =
      "grid 4 4 1\nobstacles 0\nnets 2\nnet 0 2\n(0 0 0)\n(3 0 0)\n"
      "net 1 2\n(0 3 0)\n(3 0 0)\n";
  EXPECT_THROW(route::parse_problem(text), std::invalid_argument);
  const auto fr = lint::lint_text("x.problem", text);
  EXPECT_TRUE(has_finding(fr, "L2L-R007", 9));
  EXPECT_EQ(fr.errors(), 1);
  const auto parsed = route::parse_problem_lenient(text);
  ASSERT_EQ(parsed.defects.size(), 1u);
  EXPECT_EQ(parsed.defects[0].kind, route::ProblemDefect::Kind::kSharedPin);
  EXPECT_EQ(parsed.defects[0].message,
            "pin (3 0 0) of net 1 is also a pin of net 0 (line 6)");
  // A net that repeats its own pin only warns (R006), and the same point
  // on the other layer is another point.
  const std::string own =
      "grid 4 4 2\nobstacles 0\nnets 2\nnet 0 3\n(0 0 0)\n(3 0 0)\n"
      "(3 0 0)\nnet 1 2\n(0 3 0)\n(3 0 1)\n";
  EXPECT_NO_THROW(route::parse_problem(own));
  EXPECT_EQ(lint::lint_text("x.problem", own).errors(), 0);
  // Every pin of a later net on a point, repeats included, is named
  // against the point's first pin in file order.
  const auto three = route::parse_problem_lenient(
      "grid 4 4 1\nobstacles 0\nnets 3\nnet 0 3\n(0 0 0)\n(3 0 0)\n"
      "(3 0 0)\nnet 1 3\n(0 3 0)\n(3 0 0)\n(3 0 0)\nnet 2 2\n(3 0 0)\n"
      "(3 3 0)\n");
  ASSERT_EQ(three.defects.size(), 3u);
  for (const auto& [d, line, net] :
       {std::tuple{0, 10, 1}, std::tuple{1, 11, 1}, std::tuple{2, 13, 2}}) {
    EXPECT_EQ(three.defects[d].line, line);
    EXPECT_EQ(three.defects[d].message,
              "pin (3 0 0) of net " + std::to_string(net) +
                  " is also a pin of net 0 (line 6)");
  }
}

// ---- fuzzer finds -------------------------------------------------------

TEST(ParseCases, TwoInABlifPlaneIsRejectedLikeLintSays) {
  const auto r = read_all("two_in_blif_plane.blif");
  EXPECT_FALSE(engine_error([] {
                 network::parse_blif(hostile("two_in_blif_plane.blif"));
               }).empty());
  EXPECT_TRUE(has_finding(r.lint, "L2L-B008", 5));
}

TEST(ParseCases, RepeatedOutputIsRejectedLikeLintSays) {
  const auto r = read_all("repeated_output.blif");
  EXPECT_EQ(engine_error([] {
              network::parse_blif(hostile("repeated_output.blif"));
            }),
            "line 3, col 1: error: BLIF: output y listed twice");
  EXPECT_TRUE(has_finding(r.lint, "L2L-B007", 3));
}

TEST(ParseCases, ReassigningANegativelyPlacedCellIsADuplicate) {
  // Two cells on a 2 x 1 grid. Cell 0's first line is off the grid; its
  // second line used to overwrite it silently and grade as legal.
  const std::string text = hostile("reassigned_cell.place");
  const auto parsed = place::parse_placement_lenient(text, 2);
  ASSERT_FALSE(parsed.clean());
  EXPECT_EQ(parsed.defects.front().kind,
            place::PlacementDefect::Kind::kDuplicateCell);
  EXPECT_THROW(grader::parse_placement_text(text, 2), std::invalid_argument);
  const auto lint = lint::lint_placement(text, {2, 2, 1});
  ASSERT_EQ(lint.size(), 2u);
  EXPECT_EQ(lint[0].rule, "L2L-L004");
  EXPECT_EQ(lint[1].rule, "L2L-L002");
}

}  // namespace
}  // namespace l2l
