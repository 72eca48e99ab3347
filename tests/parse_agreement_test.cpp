// Parse agreement across layers. Lint, sema, the engines and the graders
// all read the same located parse of each input format, so on any input
// they must agree on what parses. ReportsMatchGolden pins what each of
// them says: per input of the shared corpus (see parse_corpus.hpp), the
// lint text, the sema text, the engine outcome (a result digest or
// "rejected") and, for placement and routing uploads, the grader report
// and the serialized grader.place / grader.route cache record.
// Regenerate with L2L_UPDATE_GOLDEN=1 and commit
// tests/data/golden/parse_digests.txt. parse_cases_test.cpp, in the same
// binary, holds one test per input the readers used to disagree on.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "api/espresso.hpp"
#include "api/grade.hpp"
#include "api/sat.hpp"
#include "cache/cache.hpp"
#include "lint/lint.hpp"
#include "network/blif.hpp"
#include "parse_corpus.hpp"
#include "route/solution.hpp"
#include "sema/sema.hpp"

namespace l2l {
namespace {

namespace fs = std::filesystem;
std::string digest(const std::string& bytes) {
  return cache::digest_bytes(bytes).hex();
}

std::string render(const lint::FileReport& fr) {
  lint::Report report;
  report.files.push_back(fr);
  return report.to_text();
}

/// The engine's verdict on a standalone artifact: a digest of what it
/// produced, "rejected" when it refused the input, "n/a" for formats
/// without an engine here.
std::string engine_outcome(lint::Format format, const std::string& text) {
  try {
    switch (format) {
      case lint::Format::kCnf: {
        api::SatRequest req;
        req.dimacs = text;
        req.use_cache = false;
        const auto res = api::solve_sat(req);
        return res.status.ok() ? digest(res.output) : "rejected";
      }
      case lint::Format::kPla: {
        api::EspressoRequest req;
        req.pla = text;
        req.use_cache = false;
        const auto res = api::minimize_pla(req);
        return res.exit_code == 0 ? digest(res.output) : "rejected";
      }
      case lint::Format::kBlif:
        return digest(network::write_blif(network::parse_blif(text)));
      case lint::Format::kRouteSolution:
        return digest(route::write_solution(route::parse_solution(text)));
      case lint::Format::kRouteProblem:
        return digest(route::write_problem(route::parse_problem(text)));
      default:
        return "n/a";
    }
  } catch (const std::exception&) {
    return "rejected";
  }
}

class ParseAgreement : public parse_corpus::DiskCacheTest {};

std::string golden_lines(const fs::path& dir) {
  std::string out;
  auto line = [&](const std::string& input, const char* what,
                  const std::string& value) {
    out += input + " " + what + " " + value + "\n";
  };

  for (const auto& [name, text] : parse_corpus::file_corpus()) {
    const auto lint_report = lint::lint_text(name, text);
    line(name, "lint", digest(render(lint_report)));
    line(name, "sema", digest(render(sema::analyze_text(name, text))));
    line(name, "engine", engine_outcome(lint_report.format, text));
  }

  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto fx = parse_corpus::route_fixture(seed);
    lint::LintOptions opt;
    opt.format = lint::Format::kRouteSolution;
    opt.route_problem = &fx.problem;
    for (const auto& [variant, text] : parse_corpus::route_uploads(fx)) {
      const std::string name = util::format(
          "route%d/%s", static_cast<int>(seed), variant.c_str());
      line(name, "lint", digest(render(lint::lint_text(name, text, opt))));
      line(name, "sema",
           digest(render(sema::analyze_text("<submission>", text))));
      api::RouteGradeRequest req;
      req.submission = text;
      api::RouteGradeResult res;
      const auto record = parse_corpus::persisted_record(
          dir, [&] { res = api::grade_route_submission(fx.problem, req); });
      line(name, "report", digest(res.grade.report));
      line(name, "record", digest(record));
    }
  }

  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto fx = parse_corpus::place_fixture(seed);
    lint::LintOptions opt;
    opt.format = lint::Format::kPlacement;
    opt.placement = {fx.problem.num_cells, fx.grid.sites_per_row, fx.grid.rows};
    for (const auto& [variant, text] : parse_corpus::place_uploads(fx, seed)) {
      const std::string name = util::format(
          "place%d/%s", static_cast<int>(seed), variant.c_str());
      line(name, "lint", digest(render(lint::lint_text(name, text, opt))));
      line(name, "sema",
           digest(render(sema::analyze_text("<submission>", text))));
      api::PlaceGradeRequest req;
      req.submission = text;
      req.reference_hpwl = fx.reference_hpwl;
      api::PlaceGradeResult res;
      const auto record = parse_corpus::persisted_record(dir, [&] {
        res = api::grade_place_submission(fx.problem, fx.grid, req);
      });
      line(name, "report", digest(res.grade.report));
      line(name, "record", digest(record));
    }
  }
  return out;
}

TEST_F(ParseAgreement, ReportsMatchGolden) {
  const std::string got = golden_lines(dir_);
  const std::string golden_path =
      L2L_TEST_DATA_DIR "/golden/parse_digests.txt";
  if (std::getenv("L2L_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << got;
    GTEST_SKIP() << "golden file regenerated";
  }
  const std::string want = parse_corpus::read_file(golden_path);
  ASSERT_FALSE(want.empty())
      << "missing golden file tests/data/golden/parse_digests.txt";
  EXPECT_EQ(got, want) << "actual:\n" << got;
}

}  // namespace
}  // namespace l2l
