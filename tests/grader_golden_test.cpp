// Byte-identity pin of the two graders a semester of real uploads spends
// most of its time in. Per seeded upload it records the digest of the full
// RouteGrade::report and of the grader.route cache record; per seeded PLA
// the digest of the minimize_pla output and of the espresso cache record.
// The uploads carry every defect the routing grader distinguishes
// (missing, cut, overlapping, duplicate-cell, out-of-bounds, obstacle,
// uncovered pin), on 2- and 3-layer grids, plus solution-text spellings
// the lenient parser must keep reading the same way. The PLAs are 5-8
// disjoint-support cubes with contained rows and don't-care rows, the
// shape whose OFF-set espresso's REDUCE and complement work hardest on.
// Regenerate with L2L_UPDATE_GOLDEN=1 and commit
// tests/data/golden/grader_digests.txt.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "api/espresso.hpp"
#include "api/grade.hpp"
#include "cache/cache.hpp"
#include "parse_corpus.hpp"

namespace l2l {
namespace {

std::string digest(const std::string& bytes) {
  return cache::digest_bytes(bytes).hex();
}

void replace_first(std::string& text, const std::string& from,
                   const std::string& to) {
  const auto at = text.find(from);
  if (at != std::string::npos) text.replace(at, from.size(), to);
}

struct RouteCase {
  gen::RoutingProblem problem;
  std::vector<parse_corpus::NamedText> uploads;
};

gen::RoutingProblem three_layer(gen::RoutingProblem p, util::Rng& rng) {
  // A third layer, with layer 0 and 1 obstacles dense enough that some
  // nets climb to layer 2 (stacked vias through layer 1).
  p.num_layers = 3;
  const auto area = static_cast<std::size_t>(p.width) *
                    static_cast<std::size_t>(p.height);
  p.blocked.resize(3, std::vector<bool>(area, false));
  std::vector<gen::GridPoint> pins;
  for (const auto& net : p.nets)
    pins.insert(pins.end(), net.pins.begin(), net.pins.end());
  for (int layer = 0; layer < 2; ++layer)
    for (std::size_t i = 0; i < area; ++i) {
      const gen::GridPoint g{static_cast<int>(i) % p.width,
                             static_cast<int>(i) / p.width, layer};
      if (std::find(pins.begin(), pins.end(), g) == pins.end() &&
          rng.next_below(100) < 12)
        p.blocked[static_cast<std::size_t>(layer)][i] = true;
    }
  return p;
}

RouteCase route_case(std::uint64_t seed, bool layers3) {
  util::Rng rng(seed);
  gen::RoutingGenOptions opt;
  opt.width = opt.height = 16;
  opt.num_nets = 6;
  opt.max_pins_per_net = 3;
  opt.obstacle_fraction = 0.06;
  RouteCase rc;
  rc.problem = gen::generate_routing(opt, rng);
  if (layers3) rc.problem = three_layer(std::move(rc.problem), rng);
  const auto& p = rc.problem;
  const auto ref = route::route_all(p);
  auto add = [&](const char* name, const route::RouteSolution& sol) {
    rc.uploads.push_back({name, route::write_solution(sol)});
  };
  add("clean", ref);

  // Defects edit the longest routed net; "other" is the next one.
  std::size_t victim = 0;
  for (std::size_t i = 1; i < ref.nets.size(); ++i)
    if (ref.nets[i].cells.size() > ref.nets[victim].cells.size()) victim = i;
  const std::size_t other = victim == 0 ? 1 : 0;
  auto edited = [&](auto edit) {
    auto sol = ref;
    edit(sol.nets[victim].cells, sol);
    return sol;
  };
  using Cells = std::vector<gen::GridPoint>;
  using Sol = route::RouteSolution;
  add("missing", edited([](Cells& c, Sol&) { c.clear(); }));
  add("cut", edited([](Cells& c, Sol&) {
        if (c.size() > 2) c.erase(c.begin() + static_cast<long>(c.size() / 2));
      }));
  add("overlap", edited([&](Cells& c, Sol& s) {
        c.push_back(s.nets[other].cells.front());
      }));
  add("duplicate", edited([](Cells& c, Sol&) { c.push_back(c.front()); }));
  // A net that fails its duplicate check still owns the cells it claimed:
  // a later net using one of them reports the overlap.
  add("duplicate_then_overlap", edited([&](Cells& c, Sol& s) {
        c.insert(c.begin() + 1, c.front());
        auto& later = s.nets.back().cells;
        if (&later != &c) later.push_back(c.front());
      }));
  add("out_of_bounds_x", edited([&](Cells& c, Sol&) {
        c.insert(c.begin() + static_cast<long>(c.size() / 2),
                 {p.width, 0, 0});
      }));
  add("out_of_bounds_neg", edited([](Cells& c, Sol&) {
        c.insert(c.begin(), {0, -1, 1});
      }));
  add("out_of_bounds_layer", edited([&](Cells& c, Sol&) {
        c.push_back({0, 0, p.num_layers});
      }));
  gen::GridPoint blocked{-1, -1, -1};
  for (int layer = 0; layer < p.num_layers && blocked.x < 0; ++layer)
    for (int i = 0; i < p.width * p.height; ++i)
      if (p.blocked[static_cast<std::size_t>(layer)][static_cast<std::size_t>(i)]) {
        blocked = {i % p.width, i / p.width, layer};
        break;
      }
  add("obstacle", edited([&](Cells& c, Sol&) {
        c.insert(c.begin() + static_cast<long>(c.size() / 2), blocked);
      }));
  add("pin_uncovered", edited([&](Cells& c, Sol&) {
        const auto& pins = p.nets[victim].pins;
        c.erase(std::remove(c.begin(), c.end(), pins.back()), c.end());
      }));
  add("pin_then_overlap", edited([&](Cells& c, Sol& s) {
        // The victim fails on its pin check; its cells stay claimed.
        const auto& pins = p.nets[victim].pins;
        const auto kept = c.front() == pins.back() ? c.back() : c.front();
        c.erase(std::remove(c.begin(), c.end(), pins.back()), c.end());
        s.nets.back().cells.push_back(kept);
      }));
  add("stranger_net", edited([&](Cells&, Sol& s) {
        route::NetRoute extra;
        extra.net_id = 999;
        extra.cells = {{0, 0, 0}};
        s.nets.push_back(extra);
        std::reverse(s.nets.begin(), s.nets.end());
      }));
  add("repeated_block", edited([&](Cells&, Sol& s) {
        auto again = s.nets[other];
        again.cells.resize(1);
        s.nets.push_back(again);  // the later block of one id wins
      }));
  // Every layer-1 cell also taken on layer 2: legal on a 3-layer grid
  // (one via per layer-0 cell however many layers sit above it), out of
  // bounds on a 2-layer one.
  add("climb", edited([](Cells&, Sol& s) {
        for (auto& net : s.nets) {
          const auto n = net.cells.size();
          for (std::size_t i = 0; i < n; ++i)
            if (net.cells[i].layer == 1)
              net.cells.push_back({net.cells[i].x, net.cells[i].y, 2});
        }
      }));
  add("many", edited([&](Cells& c, Sol& s) {
        c.push_back(c.front());
        s.nets[other].cells.clear();
        for (auto& net : s.nets)
          if (&net.cells != &c && net.cells.size() > 3)
            net.cells.erase(net.cells.begin() + 1);
      }));

  // Solution-text spellings: what the lenient parser salvages, flags and
  // anchors must not move.
  const std::string clean = route::write_solution(ref);
  auto text_variant = [&](const char* name, auto edit) {
    std::string text = clean;
    edit(text);
    rc.uploads.push_back({name, std::move(text)});
  };
  const gen::GridPoint c0 = ref.nets[victim].cells.front();
  const std::string cell0 = util::format("(%d %d %d)", c0.x, c0.y, c0.layer);
  text_variant("crlf", [](std::string& t) {
    std::string out;
    for (const char ch : t) {
      if (ch == '\n') out += '\r';
      out += ch;
    }
    t = std::move(out);
  });
  text_variant("spacing", [&](std::string& t) {
    replace_first(t, cell0,
                  util::format("  (\t%d  %d %d )  ", c0.x, c0.y, c0.layer));
  });
  text_variant("nested_parens", [&](std::string& t) {
    replace_first(t, cell0, util::format("((%d)(%d)(%d))", c0.x, c0.y, c0.layer));
  });
  text_variant("plus_sign", [&](std::string& t) {
    replace_first(t, cell0, util::format("(+%d %d +%d)", c0.x, c0.y, c0.layer));
  });
  text_variant("inner_cr", [&](std::string& t) {
    replace_first(t, cell0, util::format("(%d %d %d\r)", c0.x, c0.y, c0.layer));
  });
  text_variant("two_tokens", [&](std::string& t) {
    replace_first(t, cell0, util::format("(%d %d)", c0.x, c0.y));
  });
  text_variant("four_tokens", [&](std::string& t) {
    replace_first(t, cell0, util::format("(%d %d %d 1)", c0.x, c0.y, c0.layer));
  });
  text_variant("trailing_junk", [&](std::string& t) {
    replace_first(t, cell0, cell0 + "junk");
  });
  text_variant("commas", [&](std::string& t) {
    replace_first(t, cell0, util::format("(%d,%d,%d)", c0.x, c0.y, c0.layer));
  });
  text_variant("overflow", [&](std::string& t) {
    replace_first(t, cell0, "(99999999999 0 0)");
  });
  text_variant("empty_parens", [&](std::string& t) {
    replace_first(t, cell0, "()");
  });
  text_variant("no_open_paren", [&](std::string& t) {
    replace_first(t, cell0, util::format("%d %d %d)", c0.x, c0.y, c0.layer));
  });
  text_variant("bad_net_id", [](std::string& t) {
    replace_first(t, "net ", "net x");
  });
  text_variant("blank_lines", [](std::string& t) {
    replace_first(t, "!\n", "!\n\n   \n\t\n");
  });
  text_variant("no_final_newline", [](std::string& t) { t.pop_back(); });
  text_variant("unterminated_indented", [](std::string& t) {
    t.resize(t.size() - 2);  // drop the last "!\n"
    t += "   (1 1 0)";
  });
  text_variant("unterminated_newline", [](std::string& t) {
    t.resize(t.size() - 2);
  });
  text_variant("count_mismatch", [](std::string& t) { t.insert(0, "1"); });
  text_variant("no_header", [](std::string& t) {
    t.erase(0, t.find('\n') + 1);
  });
  text_variant("stray_bang", [](std::string& t) { t.insert(t.find('\n') + 1, "!\n"); });
  text_variant("cell_outside", [&](std::string& t) {
    t.insert(t.find('\n') + 1, cell0 + "\n");
  });
  text_variant("new_net_early", [](std::string& t) {
    replace_first(t, "!\n", "");
  });
  text_variant("whitespace_only", [](std::string& t) { t = " \n\t\n"; });
  text_variant("course_header", [](std::string& t) {
    t.insert(0, "course route hw7\n");
  });
  return rc;
}

std::string pla_text(std::uint64_t seed) {
  util::Rng rng(seed);
  const int k = 5 + static_cast<int>(seed % 4);
  constexpr int kLits = 2;
  const int inputs = k * kLits + 2;
  std::vector<int> vars(static_cast<std::size_t>(inputs));
  std::iota(vars.begin(), vars.end(), 0);
  rng.shuffle(vars);
  std::vector<std::string> ref(static_cast<std::size_t>(k),
                               std::string(static_cast<std::size_t>(inputs), '-'));
  for (int g = 0; g < k; ++g)
    for (int t = 0; t < kLits; ++t)
      ref[static_cast<std::size_t>(g)]
         [static_cast<std::size_t>(vars[static_cast<std::size_t>(g * kLits + t)])] =
             rng.next_bool() ? '1' : '0';
  auto subcube = [&]() {
    std::string sub = ref[rng.next_below(ref.size())];
    const auto extra = 1 + rng.next_below(2);
    for (std::uint64_t e = 0; e < extra;) {
      const auto v = rng.next_below(sub.size());
      if (sub[v] != '-') continue;
      sub[v] = rng.next_bool() ? '1' : '0';
      ++e;
    }
    return sub;
  };
  auto random_row = [&]() {
    std::string row(static_cast<std::size_t>(inputs), '-');
    for (auto& ch : row) {
      const auto r = rng.next_below(6);
      if (r == 0) ch = '0';
      if (r == 1) ch = '1';
    }
    return row;
  };
  std::vector<std::string> rows;
  for (const auto& r : ref) rows.push_back(r + " 1");
  const auto contained = 1 + rng.next_below(4);
  for (std::uint64_t c = 0; c < contained; ++c) rows.push_back(subcube() + " 1");
  const auto dcs = seed % 3;
  for (std::uint64_t c = 0; c < dcs; ++c) rows.push_back(random_row() + " -");
  if (seed % 5 == 0) rows.push_back(random_row() + " 1");
  rng.shuffle(rows);
  std::string body = util::format(".i %d\n.o 1\n", inputs);
  for (const auto& r : rows) body += r + "\n";
  body += ".e\n";
  return body;
}

class GraderGolden : public parse_corpus::DiskCacheTest {};

TEST_F(GraderGolden, ReportsMatchGolden) {
  std::string got;
  auto line = [&](const std::string& input, const char* what,
                  const std::string& value) {
    got += input + " " + what + " " + value + "\n";
  };
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const bool layers3 = seed == 4;
    const auto rc = route_case(seed, layers3);
    for (const auto& [variant, text] : rc.uploads) {
      const std::string name = util::format(
          "route%d/%s", static_cast<int>(seed), variant.c_str());
      api::RouteGradeRequest req;
      req.submission = text;
      api::RouteGradeResult res;
      const auto record = parse_corpus::persisted_record(
          dir_, [&] { res = api::grade_route_submission(rc.problem, req); });
      line(name, "report", digest(res.grade.report));
      line(name, "record", digest(record));
    }
  }
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::string name = util::format("pla%d", static_cast<int>(seed));
    api::EspressoRequest req;
    req.pla = pla_text(seed);
    api::EspressoResult res;
    const auto record = parse_corpus::persisted_record(
        dir_, [&] { res = api::minimize_pla(req); });
    ASSERT_EQ(res.exit_code, 0) << name;
    line(name, "output", digest(res.output));
    line(name, "record", digest(record));
  }

  const std::string golden_path =
      L2L_TEST_DATA_DIR "/golden/grader_digests.txt";
  if (std::getenv("L2L_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << got;
    GTEST_SKIP() << "golden file regenerated";
  }
  const std::string want = parse_corpus::read_file(golden_path);
  ASSERT_FALSE(want.empty())
      << "missing golden file tests/data/golden/grader_digests.txt";
  EXPECT_EQ(got, want) << "actual:\n" << got;
}

}  // namespace
}  // namespace l2l
