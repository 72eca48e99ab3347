// l2l::lint test suite: every registered rule fires on a seeded defect
// and stays silent on a clean artifact, the repo's own data/ files lint
// with zero errors, the hostile corpus produces diagnostics instead of
// crashes (including through parse_blif_lenient), and a multi-file
// report renders byte-identically at any thread count.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "network/blif.hpp"
#include "obs/metrics.hpp"
#include "route/solution.hpp"
#include "util/parallel.hpp"

namespace l2l::lint {
namespace {

// ---- fixtures -----------------------------------------------------------

// The routing problem every placement/solution case checks against:
// 4x4x1 grid, one obstacle at (1 1 0), one two-pin net with id 0.
const char kProblemText[] =
    "grid 4 4 1\n"
    "obstacles 1\n"
    "(1 1 0)\n"
    "nets 1\n"
    "net 0 2\n"
    "(0 0 0)\n"
    "(3 3 0)\n";

const gen::RoutingProblem& test_problem() {
  static const gen::RoutingProblem p = route::parse_problem(kProblemText);
  return p;
}

// One artifact per format that every rule of its pack must accept.
const char* clean_text(Format f) {
  switch (f) {
    case Format::kBlif:
      return ".model t\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n";
    case Format::kPla:
      return ".i 2\n.o 1\n.p 2\n00 1\n11 1\n.e\n";
    case Format::kCnf:
      return "p cnf 2 2\n1 2 0\n-1 2 0\n";
    case Format::kPlacement:
      return "cell 0 0 0\ncell 1 1 0\n";
    case Format::kRouteProblem:
      return kProblemText;
    case Format::kRouteSolution:
      // Routes net 0 around the (1 1 0) obstacle.
      return "1\nnet 0\n(0 0 0)\n(1 0 0)\n(2 0 0)\n(3 0 0)\n(3 1 0)\n"
             "(3 2 0)\n(3 3 0)\n!\n";
    case Format::kKbddScript:
      return "var a b\nf = a & b\nsize f\n";
    case Format::kAxb:
      return "2\n2 -1\n-1 2\n0 3\n";
    default:
      return "";
  }
}

std::vector<Finding> run_pack(Format f, const std::string& text) {
  LintOptions opt;
  opt.format = f;
  opt.placement = {/*num_cells=*/2, /*cols=*/2, /*rows=*/2};
  if (f == Format::kRouteSolution) opt.route_problem = &test_problem();
  return lint_text("case", text, opt).findings;
}

bool has_rule(const std::vector<Finding>& findings, std::string_view id) {
  for (const auto& f : findings)
    if (f.rule == id) return true;
  return false;
}

std::string data_path(const char* name) {
  return std::string(L2L_REPO_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---- the rule table: one seeded defect per registered rule --------------

struct RuleCase {
  const char* rule;
  Format format;
  const char* dirty;  ///< minimal artifact that must trigger `rule`
};

const RuleCase kRuleCases[] = {
    // BLIF / network
    {"L2L-B001", Format::kBlif, "this is not blif\n.end\n"},
    {"L2L-B002", Format::kBlif,
     ".model m\n.inputs a\n.outputs y\n.latch a y re clk 0\n"
     ".names a y\n1 1\n.end\n"},
    {"L2L-B003", Format::kBlif,
     ".model m\n.inputs a\n.outputs y\n.names b y\n1 1\n.end\n"},
    {"L2L-B004", Format::kBlif,
     ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n"
     ".names a y\n0 1\n.end\n"},
    {"L2L-B005", Format::kBlif,
     ".model m\n.inputs a\n.outputs y\n.names q y\n1 1\n"
     ".names y q\n1 1\n.end\n"},
    {"L2L-B006", Format::kBlif,
     ".model m\n.inputs a b\n.outputs y\n.names a y\n1 1\n"
     ".names a b z\n11 1\n.end\n"},
    {"L2L-B007", Format::kBlif,
     ".model m\n.inputs a\n.outputs y y\n.names a y\n1 1\n.end\n"},
    {"L2L-B008", Format::kBlif,
     ".model m\n.inputs a b\n.outputs y\n.names a b y\n1 1\n.end\n"},
    {"L2L-B009", Format::kBlif,
     ".model m\n.inputs a b\n.outputs y\n.names a y\n1 1\n.end\n"},
    // PLA
    {"L2L-P001", Format::kPla, "00 1\n.i 2\n.o 1\n.e\n"},
    {"L2L-P002", Format::kPla, ".i 2\n.o 1\n001 1\n.e\n"},
    {"L2L-P003", Format::kPla, ".i 2\n.o 1\n00 11\n.e\n"},
    {"L2L-P004", Format::kPla, ".i 2\n.o 1\n0x 1\n.e\n"},
    {"L2L-P005", Format::kPla, ".i 2\n.o 1\n00 1\n00 1\n.e\n"},
    {"L2L-P006", Format::kPla, ".i 2\n.o 1\n00 1\n00 0\n.e\n"},
    {"L2L-P007", Format::kPla, ".i 2\n.o 1\n.p 5\n00 1\n.e\n"},
    {"L2L-P008", Format::kPla, ".i 2\n.o 1\n00 0\n.e\n"},
    // DIMACS CNF
    {"L2L-C001", Format::kCnf, "not dimacs\n"},
    {"L2L-C002", Format::kCnf, "p cnf 2 1\n1 3 0\n"},
    {"L2L-C003", Format::kCnf, "p cnf 2 2\n1 2 0\n"},
    {"L2L-C004", Format::kCnf, "p cnf 2 2\n1 0\n0\n"},
    {"L2L-C005", Format::kCnf, "p cnf 2 2\n1 2 0\n1 2 0\n"},
    {"L2L-C006", Format::kCnf, "p cnf 2 1\n1 -1 0\n"},
    {"L2L-C006", Format::kCnf, "p cnf 3 1\n-3 -1 2 3 0\n"},  // pair not adjacent
    {"L2L-C007", Format::kCnf, "p cnf 2 1\n1 1 2 0\n"},
    {"L2L-C008", Format::kCnf, "p cnf 3 1\n1 2 0\n"},
    // placement text (checked against spec: 2 cells on a 2x2 grid)
    {"L2L-L001", Format::kPlacement, "cell x 0 0\ncell 0 0 0\ncell 1 1 1\n"},
    {"L2L-L002", Format::kPlacement, "cell 0 0 0\ncell 0 1 1\ncell 1 1 0\n"},
    {"L2L-L003", Format::kPlacement, "cell 5 0 0\ncell 0 0 0\ncell 1 1 0\n"},
    {"L2L-L004", Format::kPlacement, "cell 0 9 9\ncell 1 0 0\n"},
    {"L2L-L005", Format::kPlacement, "cell 0 0 0\ncell 1 0 0\n"},
    {"L2L-L006", Format::kPlacement, "cell 0 0 0\n"},
    // routing problem
    {"L2L-R001", Format::kRouteProblem, "grid banana\n"},
    {"L2L-R002", Format::kRouteProblem,
     "grid 100000 100000 64\nobstacles 0\nnets 0\n"},
    {"L2L-R003", Format::kRouteProblem,
     "grid 4 4 1\nobstacles 0\nnets 1\nnet 0 2\n(0 0 0)\n(9 9 0)\n"},
    {"L2L-R004", Format::kRouteProblem,
     "grid 4 4 1\nobstacles 1\n(1 1 0)\nnets 1\nnet 0 2\n(1 1 0)\n(3 3 0)\n"},
    {"L2L-R005", Format::kRouteProblem,
     "grid 4 4 1\nobstacles 0\nnets 2\nnet 0 2\n(0 0 0)\n(1 1 0)\n"
     "net 0 2\n(2 2 0)\n(3 3 0)\n"},
    {"L2L-R006", Format::kRouteProblem,
     "grid 4 4 1\nobstacles 0\nnets 1\nnet 0 2\n(0 0 0)\n(0 0 0)\n"},
    {"L2L-R007", Format::kRouteProblem,
     "grid 4 4 1\nobstacles 0\nnets 2\nnet 0 2\n(0 0 0)\n(1 1 0)\n"
     "net 1 2\n(1 1 0)\n(3 3 0)\n"},
    // routing solution (checked against test_problem())
    {"L2L-S001", Format::kRouteSolution, "1\nnet banana\n"},
    {"L2L-S002", Format::kRouteSolution,
     "2\nnet 0\n(0 0 0)\n(1 0 0)\n!\nnet 0\n(2 0 0)\n(3 0 0)\n!\n"},
    {"L2L-S003", Format::kRouteSolution, "1\nnet 0\n(9 9 0)\n!\n"},
    {"L2L-S004", Format::kRouteSolution, "1\nnet 0\n(1 1 0)\n!\n"},
    {"L2L-S005", Format::kRouteSolution, "1\nnet 7\n(0 0 0)\n!\n"},
    {"L2L-S006", Format::kRouteSolution, "2\nnet 0\n(0 0 0)\n!\n"},
    // kbdd calculator scripts
    {"L2L-K001", Format::kKbddScript, "frobnicate a\n"},
    {"L2L-K002", Format::kKbddScript, "var a\nsize nosuch\n"},
    {"L2L-K003", Format::kKbddScript, "var a\nvar a\n"},
    {"L2L-K004", Format::kKbddScript, "var a\nf = (a\n"},
    // axb linear systems
    {"L2L-A001", Format::kAxb, "0\n"},
    {"L2L-A002", Format::kAxb, "2\n1 0 0\n"},
    {"L2L-A003", Format::kAxb, "1\n2\n3\n4\n"},
    {"L2L-A004", Format::kAxb, "2\n1 2\n3 4\n0 0\n"},
};

// ---- per-rule positive and negative cases -------------------------------

TEST(LintRules, EveryRegisteredRuleFiresOnItsSeededDefect) {
  for (const auto& c : kRuleCases) {
    const auto findings = run_pack(c.format, c.dirty);
    EXPECT_TRUE(has_rule(findings, c.rule))
        << c.rule << " did not fire on its seeded defect";
    // The stable ID must resolve in the registry with the severity the
    // finding actually carries.
    const RuleInfo* info = rule_info(c.rule);
    ASSERT_NE(info, nullptr) << c.rule << " missing from all_rules()";
    for (const auto& f : findings)
      if (f.rule == c.rule)
        EXPECT_EQ(f.severity, info->severity)
            << c.rule << " fired at a severity differing from its registry "
            << "default";
  }
}

TEST(LintRules, NoRuleFiresOnItsFormatsCleanArtifact) {
  for (const auto& c : kRuleCases) {
    const auto findings = run_pack(c.format, clean_text(c.format));
    EXPECT_TRUE(findings.empty())
        << format_name(c.format) << " clean artifact tripped "
        << (findings.empty() ? "" : findings.front().to_string());
    EXPECT_FALSE(has_rule(findings, c.rule));
  }
}

TEST(LintRules, SpecLessPlacementAtIntMaxReportsTheRepeat) {
  // No spec, so no range rule applies: ids and sites up to INT_MAX are
  // hashed, never used as sizes, and the repeat is the one finding.
  const std::string line = "cell 2147483647 2147483647 2147483647\n";
  const auto findings = lint_placement(line + line);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].to_string(),
            "line 2, col 1: error: [L2L-L002] cell 2147483647 assigned twice "
            "(first on line 1) (hint: keep one line per cell)");
}

TEST(LintRules, TableCoversTheEntireRegistry) {
  std::set<std::string> in_table;
  for (const auto& c : kRuleCases) in_table.insert(c.rule);
  std::set<std::string> registered;
  for (const auto& r : all_rules()) registered.insert(r.id);
  EXPECT_EQ(in_table, registered)
      << "every registered rule needs a positive case here (and every "
      << "tested rule must be registered)";
}

TEST(LintRules, RegistryIsPackGroupedUniqueAndLookupAgrees) {
  // `--rules` prints the registry in pack order (B, P, C, L, R, S, K, A)
  // with IDs ascending within each pack; IDs are globally unique.
  const auto& rules = all_rules();
  ASSERT_FALSE(rules.empty());
  std::set<std::string> ids;
  for (size_t i = 0; i < rules.size(); ++i) {
    EXPECT_TRUE(ids.insert(rules[i].id).second)
        << rules[i].id << " registered twice";
    if (i > 0 && rules[i - 1].id[4] == rules[i].id[4])
      EXPECT_LT(std::string(rules[i - 1].id), std::string(rules[i].id));
  }
  for (const auto& r : rules) EXPECT_EQ(rule_info(r.id), &r);
  EXPECT_EQ(rule_info("L2L-Z999"), nullptr);
}

// ---- format resolution --------------------------------------------------

TEST(LintFormats, ExtensionThenSniffThenUnknownNote) {
  EXPECT_EQ(format_from_path("designs/adder.blif"), Format::kBlif);
  EXPECT_EQ(format_from_path("hw3.cnf"), Format::kCnf);
  EXPECT_EQ(format_from_path("mystery.bin"), Format::kAuto);
  EXPECT_EQ(sniff_format("p cnf 2 1\n1 2 0\n"), Format::kCnf);
  EXPECT_EQ(sniff_format(".model top\n.end\n"), Format::kBlif);

  // Unrecognized bytes produce exactly one file-level note, zero errors:
  // hostile uploads must never make the linter itself fail.
  const auto fr = lint_text("mystery.bin", "total gibberish here\n");
  EXPECT_EQ(fr.format, Format::kUnknown);
  ASSERT_EQ(fr.findings.size(), 1u);
  EXPECT_EQ(fr.findings.front().rule, "L2L-X000");
  EXPECT_EQ(fr.findings.front().severity, util::Severity::kNote);
  EXPECT_EQ(fr.errors(), 0);
}

TEST(LintFormats, SniffsPlacementBeforeDimacsComment) {
  // A placement line opens with 'c' like a DIMACS comment: "cell " wins.
  EXPECT_EQ(sniff_format("cell 0 1 1\ncell 1 2 2\n"), Format::kPlacement);
  EXPECT_EQ(sniff_format("# hw6\n\ncell 0 1 1\n"), Format::kPlacement);
  // A 'c'-comment CNF still sniffs as DIMACS, with or without the space.
  EXPECT_EQ(sniff_format("c generated\np cnf 2 1\n1 2 0\n"), Format::kCnf);
  EXPECT_EQ(sniff_format("c\np cnf 1 1\n1 0\n"), Format::kCnf);
  EXPECT_EQ(sniff_format("cellular automaton\np cnf 1 1\n1 0\n"),
            Format::kCnf);
  // With no extension, lint runs the placement pack, not the DIMACS one.
  const auto fr = lint_text("upload", "cell 0 1 1\ncell 1 2 2\n");
  EXPECT_EQ(fr.format, Format::kPlacement);
  for (const auto& f : fr.findings) EXPECT_NE(f.rule, "L2L-C001");
}

TEST(LintFormats, FlagNamesRoundTrip) {
  for (const char* name : {"blif", "pla", "cnf", "place", "route-problem",
                           "route-solution", "kbdd", "axb"}) {
    const auto f = parse_format_name(name);
    ASSERT_TRUE(f.has_value()) << name;
    EXPECT_NE(*f, Format::kUnknown);
  }
  EXPECT_FALSE(parse_format_name("verilog").has_value());
}

// ---- findings and report rendering --------------------------------------

TEST(LintReport, FindingsComeOutSortedAndRenderTheirHints) {
  // The B004 artifact yields multiple findings across several lines.
  const auto findings = run_pack(
      Format::kBlif,
      ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n"
      ".names a y\n0 1\n.end\n");
  ASSERT_GE(findings.size(), 1u);
  for (size_t i = 1; i < findings.size(); ++i) {
    const auto& a = findings[i - 1];
    const auto& b = findings[i];
    EXPECT_LE(std::tie(a.line, a.column, a.rule), std::tie(b.line, b.column, b.rule));
  }
  // to_string carries the anchor, the bracketed rule ID, and the hint.
  Finding f{"L2L-B003", util::Severity::kError, 3, 1, "undriven net 'q'",
            "drive it or drop it"};
  const std::string s = f.to_string();
  EXPECT_NE(s.find("line 3"), std::string::npos);
  EXPECT_NE(s.find("[L2L-B003]"), std::string::npos);
  EXPECT_NE(s.find("drive it or drop it"), std::string::npos);
  // to_diagnostic keeps the stable ID visible in grader reports.
  EXPECT_NE(f.to_diagnostic().message.find("L2L-B003"), std::string::npos);
}

TEST(LintReport, MixedBatchRendersCountsAndKeepsInputOrder) {
  const std::vector<std::pair<std::string, std::string>> batch = {
      {"ok.cnf", clean_text(Format::kCnf)},
      {"bad.cnf", "p cnf 2 1\n1 3 0\n"},
      {"warn.pla", ".i 2\n.o 1\n.p 5\n00 1\n.e\n"},
  };
  const Report r = lint_files(batch);
  ASSERT_EQ(r.files.size(), 3u);
  EXPECT_EQ(r.files[0].file, "ok.cnf");
  EXPECT_EQ(r.files[1].file, "bad.cnf");
  EXPECT_EQ(r.files[2].file, "warn.pla");
  EXPECT_EQ(r.errors(), 1);
  EXPECT_GE(r.warnings(), 1);
  EXPECT_FALSE(r.pass());

  const std::string text = r.to_text();
  EXPECT_NE(text.find("[L2L-C002]"), std::string::npos);
  EXPECT_NE(text.find("lint: 3 file(s)"), std::string::npos);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"bad.cnf\""), std::string::npos);
  EXPECT_NE(json.find("\"L2L-C002\""), std::string::npos);
}

TEST(LintReport, WerrorPromotesWarningsToGateFailures) {
  const Report r = lint_files({{"warn.pla", ".i 2\n.o 1\n.p 5\n00 1\n.e\n"}});
  EXPECT_EQ(r.errors(), 0);
  EXPECT_GE(r.warnings(), 1);
  EXPECT_TRUE(r.pass(/*werror=*/false));
  EXPECT_FALSE(r.pass(/*werror=*/true));
}

TEST(LintReport, PerRuleObsCountersTally) {
  obs::set_enabled(true);
  obs::Registry::global().reset();
  (void)lint_files({{"bad.cnf", "p cnf 2 1\n1 3 0\n"},
                    {"dup.cnf", "p cnf 2 2\n1 2 0\n1 2 0\n"}});
  const auto snap = obs::Registry::global().snapshot();
  obs::set_enabled(false);
  EXPECT_EQ(snap.counters.at("lint.files"), 2);
  EXPECT_GE(snap.counters.at("lint.rule.L2L-C002"), 1);
  EXPECT_GE(snap.counters.at("lint.rule.L2L-C005"), 1);
}

// ---- repo artifacts and the hostile corpus ------------------------------

TEST(LintCorpus, ShippedDataArtifactsLintWithZeroErrors) {
  // Every artifact the repo itself ships must pass its own linter.
  for (const char* name : {"fulladder.blif", "sample.pla", "sample.cnf",
                           "sample.kbdd", "sample.axb"}) {
    const auto fr = lint_text(name, read_file(data_path(name)));
    EXPECT_EQ(fr.errors(), 0)
        << name << " should be clean:\n"
        << (fr.findings.empty() ? "" : fr.findings.front().to_string());
  }
}

TEST(LintCorpus, HostileFilesProduceDiagnosticsNeverCrashes) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(L2L_TEST_DATA_DIR) / "hostile";
  int linted = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name == "README.md") continue;
    const std::string text = read_file(entry.path().string());
    FileReport fr;
    ASSERT_NO_THROW(fr = lint_text(name, text)) << name;
    // Rendering must survive arbitrary bytes too.
    for (const auto& f : fr.findings) ASSERT_NO_THROW((void)f.to_string());
    // out_of_range_route.sol only violates geometry, which standalone
    // lint (no problem handed in) deliberately skips, and
    // esop_overwide.pla is well-formed PLA whose 17 inputs only the
    // ESOP engine's arity cap rejects; everything else must yield at
    // least one finding.
    if (name != "out_of_range_route.sol" && name != "esop_overwide.pla")
      EXPECT_FALSE(fr.findings.empty()) << name << " linted silently";
    ++linted;
  }
  EXPECT_GE(linted, 10) << "hostile corpus went missing";
}

TEST(LintCorpus, LenientBlifParseNeverThrowsOnHostileBytes) {
  // Satellite regression for parse_blif_lenient: the whole corpus --
  // including non-BLIF binary junk -- must come back as diagnostics,
  // never as an exception.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(L2L_TEST_DATA_DIR) / "hostile";
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name == "README.md") continue;
    const std::string text = read_file(entry.path().string());
    network::ParsedBlif parsed;
    ASSERT_NO_THROW(parsed = network::parse_blif_lenient(text)) << name;
    if (name == "garbage.blif" || name == "truncated.blif")
      EXPECT_FALSE(parsed.clean()) << name << " parsed without diagnostics";
  }
}

TEST(LintCorpus, LenientBlifSalvagesAroundLocalizedDefects) {
  // A malformed cube row poisons only its own .names block: the sibling
  // output still parses, and both defects surface as diagnostics (the
  // bad row, then the output its block would have driven).
  const std::string text =
      ".model m\n"
      ".inputs a b\n"
      ".outputs y z\n"
      ".names a b y\n"
      "11 1\n"
      ".names a b z\n"
      "banana row\n"
      ".end\n";
  const auto parsed = network::parse_blif_lenient(text);
  ASSERT_GE(parsed.diagnostics.size(), 2u);
  EXPECT_EQ(parsed.diagnostics.front().line, 7);  // anchored at the bad row
  EXPECT_EQ(parsed.network.outputs().size(), 1u);
  EXPECT_THROW((void)network::parse_blif(text), std::invalid_argument);
}

// ---- determinism across the worker pool ---------------------------------

TEST(LintDeterminism, ReportBytesAreThreadCountInvariant) {
  // A batch wide enough to spread across workers, mixing every format
  // plus hostile bytes. Both renderings must be byte-identical at any
  // L2L_THREADS -- same contract as the engines (determinism_test pins
  // the same property against the full fixture set).
  std::vector<std::pair<std::string, std::string>> batch;
  for (const auto& c : kRuleCases)
    batch.emplace_back(std::string(c.rule) + ".case", c.dirty);
  for (Format f : {Format::kBlif, Format::kPla, Format::kCnf,
                   Format::kKbddScript, Format::kAxb})
    batch.emplace_back(std::string("clean.") + format_name(f), clean_text(f));

  std::vector<std::string> texts, jsons;
  for (const int t : {1, 2, 8}) {
    util::set_num_threads(t);
    const Report r = lint_files(batch);
    texts.push_back(r.to_text());
    jsons.push_back(r.to_json());
  }
  util::set_num_threads(0);
  EXPECT_EQ(texts[0], texts[1]);
  EXPECT_EQ(texts[0], texts[2]);
  EXPECT_EQ(jsons[0], jsons[1]);
  EXPECT_EQ(jsons[0], jsons[2]);
  EXPECT_NE(texts[0].find("error"), std::string::npos);
}

}  // namespace
}  // namespace l2l::lint
