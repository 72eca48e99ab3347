#pragma once
// The input corpus shared by the parse-agreement golden, the mutation
// fuzzer and the checker oracle: every file in data/ and
// tests/data/hostile/, plus seeded placement and routing uploads carrying
// the defects the end-to-end semester benchmark seeds (swapped cells,
// overlaps, malformed lines, dropped and cut nets), and the fuzzer's
// mutation operators. Everything is deterministic: the same build always
// yields the same inputs in the same order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "cache/cache.hpp"
#include "gen/placement_gen.hpp"
#include "gen/routing_gen.hpp"
#include "place/legalize.hpp"
#include "place/wirelength.hpp"
#include "route/router.hpp"
#include "route/solution.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace l2l::parse_corpus {

inline std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs one cacheable call against an empty disk tier and returns the
/// bytes the facade persisted: the serialized cache record.
template <typename Call>
std::string persisted_record(const std::filesystem::path& dir, Call call) {
  cache::Cache::global().clear();
  call();
  std::string record;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    record += read_file(entry.path());
    std::filesystem::remove(entry.path());
  }
  return record;
}

/// A fresh on-disk cache tier per test, for persisted_record.
class DiskCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("l2l_disk_cache_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    cache::set_enabled(true);
    cache::Cache::global().set_disk_dir(dir_.string());
  }
  void TearDown() override {
    cache::Cache::global().set_disk_dir("");
    cache::Cache::global().clear();
    std::filesystem::remove_all(dir_);
  }
  std::filesystem::path dir_;
};

struct NamedText {
  std::string name;  ///< "data/<file>" or "hostile/<file>"
  std::string text;
};

/// Every regular file of data/ and tests/data/hostile/ (README excluded),
/// sorted by name within each directory.
inline std::vector<NamedText> file_corpus() {
  namespace fs = std::filesystem;
  std::vector<NamedText> out;
  for (const auto& [prefix, dir] :
       {std::pair<std::string, fs::path>{"data", L2L_REPO_DATA_DIR},
        {"hostile", fs::path(L2L_TEST_DATA_DIR) / "hostile"}}) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(dir))
      if (entry.is_regular_file() && entry.path().filename() != "README.md")
        files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    for (const auto& f : files)
      out.push_back({prefix + "/" + f.filename().string(), read_file(f)});
  }
  return out;
}

/// A CNF pasted into a layout portal: exercises the graders' sema block.
inline constexpr const char* kMisdirectedCnf = "p cnf 1 2\n1 0\n-1 0\n";

// ---- mutation ------------------------------------------------------------
// The seeded mutation fuzzer's operators and sizes (parse_fuzz_test),
// shared so the checker oracle can replay the fuzzer's mutant streams.

/// Mutants per corpus input; inputs above kMaxBytes are skipped (the
/// quadratic-by-design engine paths would dominate the time budget).
inline constexpr int kMutants = 160;
inline constexpr std::size_t kMaxBytes = 16 * 1024;

inline std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  util::for_each_line(text, [&](int, std::string_view l) {
    out.emplace_back(l);
    return true;
  });
  return out;
}

/// One deterministic mutation of `text`; `donor` supplies spliced lines.
inline std::string mutate(const std::string& text, const std::string& donor,
                          util::Rng& rng) {
  std::string s = text;
  // Bytes that matter to the formats under test, so flips hit tokens.
  static constexpr char kAlphabet[] = "012-~.#%pcnfe \t\n\\x";
  switch (rng.next_below(6)) {
    case 0:  // flip one bit
      if (!s.empty())
        s[rng.next_below(s.size())] ^=
            static_cast<char>(1u << rng.next_below(8));
      return s;
    case 1:  // overwrite one byte with a format-relevant one
      if (!s.empty())
        s[rng.next_below(s.size())] =
            kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)];
      return s;
    case 2:  // truncate
      s.resize(rng.next_below(s.size() + 1));
      return s;
    default: {  // line splices: duplicate, delete, or import a line
      auto lines = lines_of(s);
      const auto from = lines_of(donor);
      const auto at = rng.next_below(lines.size() + 1);
      const auto op = rng.next_below(3);
      if (op == 0 && !lines.empty()) {
        lines.insert(lines.begin() + static_cast<long>(at),
                     lines[rng.next_below(lines.size())]);
      } else if (op == 1 && !lines.empty()) {
        lines.erase(lines.begin() +
                    static_cast<long>(rng.next_below(lines.size())));
      } else if (!from.empty()) {
        lines.insert(lines.begin() + static_cast<long>(at),
                     from[rng.next_below(from.size())]);
      }
      std::string out;
      for (const auto& l : lines) out += l + "\n";
      return out;
    }
  }
}

// ---- routing uploads ----------------------------------------------------

struct RouteFixture {
  gen::RoutingProblem problem;
  route::RouteSolution reference;
};

inline RouteFixture route_fixture(std::uint64_t seed) {
  util::Rng rng(seed);
  gen::RoutingGenOptions opt;
  opt.width = opt.height = 12;
  opt.num_nets = 5;
  opt.max_pins_per_net = 3;
  opt.obstacle_fraction = 0.05;
  RouteFixture fx;
  fx.problem = gen::generate_routing(opt, rng);
  fx.reference = route::route_all(fx.problem);
  return fx;
}

/// (variant name, upload text) pairs for one fixture.
inline std::vector<NamedText> route_uploads(const RouteFixture& fx) {
  std::vector<NamedText> out;
  const auto& ref = fx.reference;
  out.push_back({"clean", route::write_solution(ref)});
  // The longest routed net is the one every defect below edits.
  std::size_t victim = 0;
  for (std::size_t i = 1; i < ref.nets.size(); ++i)
    if (ref.nets[i].cells.size() > ref.nets[victim].cells.size()) victim = i;
  {
    auto sol = ref;
    auto& cells = sol.nets[victim].cells;
    if (cells.size() > 2)
      cells.erase(cells.begin() + static_cast<long>(cells.size() / 2));
    out.push_back({"cut", route::write_solution(sol)});
  }
  {
    auto sol = ref;
    sol.nets[victim].cells.clear();
    sol.nets[victim].routed = false;
    out.push_back({"dropped", route::write_solution(sol)});
  }
  {
    auto sol = ref;
    const std::size_t other = victim == 0 ? 1 : 0;
    if (other < sol.nets.size() && !sol.nets[other].cells.empty())
      sol.nets[victim].cells.push_back(sol.nets[other].cells.front());
    out.push_back({"overlap", route::write_solution(sol)});
  }
  {
    std::string text = route::write_solution(ref);
    const auto at = text.find("\n(");
    if (at != std::string::npos) text.insert(at + 2, "x");
    out.push_back({"malformed", std::move(text)});
  }
  {
    std::string text = route::write_solution(ref);
    text.resize(text.size() - std::min<std::size_t>(text.size(), 7));
    out.push_back({"truncated", std::move(text)});
  }
  out.push_back({"misdirected", kMisdirectedCnf});
  return out;
}

// ---- placement uploads --------------------------------------------------

struct PlaceFixture {
  gen::PlacementProblem problem;
  place::Grid grid;
  place::GridPlacement reference;  ///< row-major, legal by construction
  double reference_hpwl = 0.0;
};

inline PlaceFixture place_fixture(std::uint64_t seed) {
  util::Rng rng(seed);
  gen::PlacementGenOptions opt;
  opt.num_cells = 30;
  opt.num_pads = 6;
  PlaceFixture fx;
  fx.problem = gen::generate_placement(opt, rng);
  const int side = static_cast<int>(std::ceil(std::sqrt(opt.num_cells * 1.5)));
  fx.grid = place::Grid{side, side, fx.problem.width, fx.problem.height};
  for (int c = 0; c < opt.num_cells; ++c) {
    fx.reference.col.push_back(c % side);
    fx.reference.row.push_back(c / side);
  }
  fx.reference_hpwl =
      place::hpwl(fx.problem, fx.reference.to_continuous(fx.grid)) * 0.9;
  return fx;
}

inline std::string placement_text(const place::GridPlacement& gp) {
  std::string out;
  for (std::size_t c = 0; c < gp.col.size(); ++c)
    out += util::format("cell %d %d %d\n", static_cast<int>(c), gp.col[c],
                        gp.row[c]);
  return out;
}

inline std::vector<NamedText> place_uploads(const PlaceFixture& fx,
                                            std::uint64_t seed) {
  std::vector<NamedText> out;
  util::Rng rng(seed);
  const auto cells = static_cast<std::uint64_t>(fx.reference.col.size());
  const auto a = static_cast<std::size_t>(rng.next_below(cells));
  const auto b =
      static_cast<std::size_t>((a + 1 + rng.next_below(cells - 1)) % cells);
  out.push_back({"clean", placement_text(fx.reference)});
  {
    auto gp = fx.reference;
    std::swap(gp.col[a], gp.col[b]);
    std::swap(gp.row[a], gp.row[b]);
    out.push_back({"swapped", placement_text(gp)});
  }
  {
    auto gp = fx.reference;
    gp.col[a] = gp.col[b];
    gp.row[a] = gp.row[b];
    out.push_back({"overlap", placement_text(gp)});
  }
  auto edit_line = [&](const char* name, const std::string& replacement) {
    std::string text = placement_text(fx.reference);
    const std::string head = util::format("cell %d ", static_cast<int>(a));
    const auto at = text.find(head);
    const auto eol = text.find('\n', at);
    text.replace(at, eol - at, replacement);
    out.push_back({name, std::move(text)});
  };
  const int col = fx.reference.col[a], row = fx.reference.row[a];
  const int ia = static_cast<int>(a);
  edit_line("short_line", util::format("cell %d %d", ia, col));
  edit_line("bad_number", util::format("cell %d %dx %d", ia, col, row));
  edit_line("out_of_range", util::format("cell %d %d %d", ia + 1000, col, row));
  edit_line("negative_site", util::format("cell %d -1 %d", ia, row));
  edit_line("duplicate",
            util::format("cell %d %d %d\n  cell %d %d %d", ia, col, row,
                         static_cast<int>(b), col, row));
  edit_line("comment", util::format("# cell %d moved\n\tcell %d %d %d", ia,
                                    ia, col, row));
  out.push_back({"misdirected", kMisdirectedCnf});
  return out;
}

}  // namespace l2l::parse_corpus
