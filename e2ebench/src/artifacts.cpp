#include "artifacts.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string_view>

#include "api/espresso.hpp"
#include "api/grade.hpp"
#include "api/place.hpp"
#include "api/route.hpp"
#include "api/sat.hpp"
#include "route/solution.hpp"
#include "util/strings.hpp"

namespace e2e {

using namespace l2l;

namespace {

// Reference problem sizes: the routing project's grid and net count, the
// placement project's cell count. Large enough that grading one upload
// is real work (0.3 ms for a placement, ~2 ms for a routing), small
// enough that a semester of thousands of distinct uploads builds in
// about a second.
constexpr int kRouteGrid = 48;
constexpr int kRouteNets = 32;
constexpr int kPlaceCells = 240;

// Grading a routing costs about its wirelength, which on random pins
// varies by a third between seeds. Of a few seeded candidate problems the
// reference routes the one whose pin bounding boxes sum closest to a
// fixed target, so every seed grades routes of about the same size. The
// grid has no obstacles: with the generator's default obstacle field the
// reference's negotiated routing (set-up time) swings sixfold between
// seeds.
constexpr int kRouteCandidates = 8;
constexpr int kRouteTargetHpwl = 1260;

constexpr double kScoreTolerance = 1e-9;

/// True when `cells` minus cells[skip] is still one 6-connected piece.
bool connected_without(const std::vector<gen::GridPoint>& cells,
                       std::size_t skip) {
  std::set<gen::GridPoint> rest;
  for (std::size_t i = 0; i < cells.size(); ++i)
    if (i != skip) rest.insert(cells[i]);
  if (rest.empty()) return true;
  std::set<gen::GridPoint> seen;
  std::vector<gen::GridPoint> stack{*rest.begin()};
  while (!stack.empty()) {
    const auto c = stack.back();
    stack.pop_back();
    if (!seen.insert(c).second) continue;
    const gen::GridPoint nbrs[6] = {
        {c.x + 1, c.y, c.layer}, {c.x - 1, c.y, c.layer},
        {c.x, c.y + 1, c.layer}, {c.x, c.y - 1, c.layer},
        {c.x, c.y, c.layer + 1}, {c.x, c.y, c.layer - 1}};
    for (const auto& n : nbrs)
      if (rest.count(n) != 0) stack.push_back(n);
  }
  return seen.size() == rest.size();
}

/// Summed half-perimeter of each net's pin bounding box.
int pin_hpwl(const gen::RoutingProblem& problem) {
  int total = 0;
  for (const auto& net : problem.nets) {
    if (net.pins.empty()) continue;
    int x0 = net.pins[0].x, x1 = x0, y0 = net.pins[0].y, y1 = y0;
    for (const auto& p : net.pins) {
      x0 = std::min(x0, p.x);
      x1 = std::max(x1, p.x);
      y0 = std::min(y0, p.y);
      y1 = std::max(y1, p.y);
    }
    total += (x1 - x0) + (y1 - y0);
  }
  return total;
}

int count_pla_cubes(const std::string& pla) {
  const auto at = pla.find("\n.p ");
  const auto eol = at == std::string::npos ? at : pla.find('\n', at + 4);
  const auto count =
      eol == std::string::npos
          ? std::nullopt
          : util::parse_int(std::string_view(pla).substr(at + 4, eol - at - 4));
  if (!count) throw std::runtime_error("minimized PLA has no .p count");
  return *count;
}

}  // namespace

bool Verdict::accepts(const mooc::ServiceOutcome& out) const {
  if (lint_rejected) return out.disposition == mooc::Disposition::kLintRejected;
  return out.disposition == mooc::Disposition::kGraded &&
         out.score >= score_lo - kScoreTolerance &&
         out.score <= score_hi + kScoreTolerance;
}

Fixtures make_fixtures(util::Rng& rng) {
  Fixtures fx;
  gen::RoutingGenOptions ropt;
  ropt.width = ropt.height = kRouteGrid;
  ropt.num_nets = kRouteNets;
  ropt.max_pins_per_net = 3;
  ropt.obstacle_fraction = 0.0;
  int best = -1;
  for (int k = 0; k < kRouteCandidates; ++k) {
    gen::RoutingProblem candidate = gen::generate_routing(ropt, rng);
    const int off = std::abs(pin_hpwl(candidate) - kRouteTargetHpwl);
    if (best < 0 || off < best) {
      best = off;
      fx.route_problem = std::move(candidate);
    }
  }
  fx.route_digest = api::routing_problem_digest(fx.route_problem);
  fx.route_ref = route::route_all(fx.route_problem);

  gen::PlacementGenOptions popt;
  popt.num_cells = kPlaceCells;
  popt.num_pads = 24;
  fx.place_problem = gen::generate_placement(popt, rng);
  const int side = static_cast<int>(std::ceil(std::sqrt(kPlaceCells * 1.5)));
  fx.place_grid = place::Grid{side, side, fx.place_problem.width,
                              fx.place_problem.height};
  fx.place_digest = api::placement_problem_digest(fx.place_problem);
  api::PlaceRequest preq;
  preq.grid = fx.place_grid;
  preq.use_cache = false;
  const auto placed = api::place_and_legalize(fx.place_problem, preq);
  fx.place_ref = placed.placement;
  fx.place_ref_hpwl = placed.hpwl;
  return fx;
}

ArtifactMaker::ArtifactMaker(const Fixtures& fx, std::uint64_t seed)
    : fx_(fx), rng_(seed) {
  const auto& nets = fx_.route_ref.nets;
  cut_cells_.resize(nets.size());
  for (std::size_t i = 0; i < nets.size(); ++i) {
    const auto& net = nets[i];
    if (!net.routed || net.cells.empty()) continue;
    ++routed_nets_;
    std::set<gen::GridPoint> pins;
    for (const auto& pnet : fx_.route_problem.nets)
      if (pnet.id == net.net_id) pins.insert(pnet.pins.begin(), pnet.pins.end());
    for (std::size_t c = 0; c < net.cells.size(); ++c)
      if (pins.count(net.cells[c]) == 0 && !connected_without(net.cells, c))
        cut_cells_[i].push_back(static_cast<int>(c));
  }
}

Artifact ArtifactMaker::make(Course c) {
  const std::uint64_t n = made_[static_cast<int>(c)]++;
  switch (c) {
    case Course::kRoute: return route(n);
    case Course::kPlace: return place(n);
    case Course::kPla: return pla(n);
    case Course::kCnf: return cnf(n);
  }
  throw std::logic_error("unknown course");
}

Artifact ArtifactMaker::route(std::uint64_t n) {
  route::RouteSolution sol = fx_.route_ref;
  std::vector<std::size_t> routed;
  for (std::size_t i = 0; i < sol.nets.size(); ++i)
    if (sol.nets[i].routed && !sol.nets[i].cells.empty()) routed.push_back(i);
  rng_.shuffle(routed);
  const auto defects =
      static_cast<int>(std::min<std::uint64_t>(n % 4, routed.size()));
  for (int d = 0; d < defects; ++d) {
    const std::size_t i = routed[static_cast<std::size_t>(d)];
    auto& net = sol.nets[i];
    const auto& cuts = cut_cells_[i];
    if (!cuts.empty() && rng_.next_bool()) {
      const int cut = cuts[rng_.next_below(cuts.size())];
      net.cells.erase(net.cells.begin() + cut);  // broken net
    } else {
      net.cells.clear();  // missing net
      net.routed = false;
    }
  }
  rng_.shuffle(sol.nets);
  const double score =
      100.0 * (routed_nets_ - defects) /
      static_cast<double>(fx_.route_problem.nets.size());
  return {"course route hw7\n" + route::write_solution(sol),
          {false, score, score}};
}

Artifact ArtifactMaker::place(std::uint64_t n) {
  place::GridPlacement gp = fx_.place_ref;
  const auto cells = static_cast<std::uint64_t>(gp.col.size());
  auto pick_pair = [&](std::size_t& a, std::size_t& b) {
    a = rng_.next_below(cells);
    do b = rng_.next_below(cells);
    while (b == a);
  };
  Verdict v;
  const auto kind = n % 20;
  bool malformed = false;
  if (kind < 2) {
    v = {false, 100.0, 100.0};  // the reference itself
  } else if (kind < 10) {
    const auto swaps = 1 + rng_.next_below(3);
    for (std::uint64_t s = 0; s < swaps; ++s) {
      std::size_t a = 0, b = 0;
      pick_pair(a, b);
      std::swap(gp.col[a], gp.col[b]);
      std::swap(gp.row[a], gp.row[b]);
    }
    v = {false, 50.0, 100.0};  // still legal; quality may drop
  } else if (kind < 15) {
    std::size_t a = 0, b = 0;
    pick_pair(a, b);
    gp.col[a] = gp.col[b];  // two cells on one site
    gp.row[a] = gp.row[b];
    v = {false, 0.0, 0.0};
  } else {
    malformed = true;
    v = {false, 0.0, 0.0};
  }
  std::vector<std::string> lines(gp.col.size());
  for (std::size_t c = 0; c < lines.size(); ++c)
    lines[c] = util::format("cell %d %d %d", static_cast<int>(c), gp.col[c],
                            gp.row[c]);
  if (malformed) {
    const auto c = rng_.next_below(cells);
    lines[c] = rng_.next_bool()
                   ? util::format("cell %d %d", static_cast<int>(c), gp.col[c])
                   : util::format("cell %d %dx %d", static_cast<int>(c),
                                  gp.col[c], gp.row[c]);
  }
  rng_.shuffle(lines);
  std::string body = "course place hw6\n";
  for (const auto& l : lines) body += l + "\n";
  return {std::move(body), v};
}

Artifact ArtifactMaker::pla(std::uint64_t n) {
  // Espresso builds the complement, which for k disjoint cubes of two
  // literals holds 2^k cubes: k <= 8 keeps one minimization near 1 ms.
  const int k = 5 + static_cast<int>((n / 5) % 4);
  constexpr int kLits = 2;
  const int inputs = k * kLits + 2;
  std::vector<int> vars(static_cast<std::size_t>(inputs));
  std::iota(vars.begin(), vars.end(), 0);
  rng_.shuffle(vars);
  // Disjoint supports: every cube is an essential prime, so the minimum
  // cover is exactly these k cubes.
  std::vector<std::string> ref(static_cast<std::size_t>(k),
                               std::string(static_cast<std::size_t>(inputs), '-'));
  for (int g = 0; g < k; ++g)
    for (int t = 0; t < kLits; ++t)
      ref[static_cast<std::size_t>(g)]
         [static_cast<std::size_t>(vars[static_cast<std::size_t>(g * kLits + t)])] =
          rng_.next_bool() ? '1' : '0';
  auto subcube = [&]() {
    std::string sub = ref[rng_.next_below(ref.size())];
    const auto extra = 1 + rng_.next_below(2);
    for (std::uint64_t e = 0; e < extra;) {
      const auto v = rng_.next_below(sub.size());
      if (sub[v] != '-') continue;
      sub[v] = rng_.next_bool() ? '1' : '0';
      ++e;
    }
    return sub;
  };
  std::vector<std::string> rows;
  for (const auto& r : ref) rows.push_back(r + " 1");
  const auto contained = 1 + rng_.next_below(4);
  for (std::uint64_t c = 0; c < contained; ++c) rows.push_back(subcube() + " 1");
  const bool contradictory = n % 5 < 2;
  if (contradictory) rows.push_back(subcube() + " 0");
  rng_.shuffle(rows);
  std::string body = util::format("course pla hw3\n.i %d\n.o 1\n", inputs);
  for (const auto& r : rows) body += r + "\n";
  body += ".e\n";
  if (contradictory) return {std::move(body), {true, 0.0, 0.0}};
  return {std::move(body), {false, static_cast<double>(k), static_cast<double>(k)}};
}

Artifact ArtifactMaker::cnf(std::uint64_t n) {
  std::vector<std::vector<int>> clauses;
  int num_vars = 0;
  const bool sat = n % 5 < 3;
  if (sat) {
    // Planted 3-SAT at clause ratio 4: every clause keeps at least one
    // literal true under the hidden assignment.
    num_vars = 50 + static_cast<int>(rng_.next_below(31));
    std::vector<bool> planted(static_cast<std::size_t>(num_vars) + 1);
    for (int v = 1; v <= num_vars; ++v)
      planted[static_cast<std::size_t>(v)] = rng_.next_bool();
    while (static_cast<int>(clauses.size()) < 4 * num_vars) {
      std::vector<int> cl;
      bool satisfied = false;
      while (cl.size() < 3) {
        const int v = 1 + static_cast<int>(
                              rng_.next_below(static_cast<std::uint64_t>(num_vars)));
        if (std::find(cl.begin(), cl.end(), v) != cl.end() ||
            std::find(cl.begin(), cl.end(), -v) != cl.end())
          continue;
        const bool positive = rng_.next_bool();
        satisfied |= positive == planted[static_cast<std::size_t>(v)];
        cl.push_back(positive ? v : -v);
      }
      if (satisfied) clauses.push_back(std::move(cl));
    }
  } else {
    // Pigeonhole PHP(h+1, h) under a random variable relabelling.
    const int holes = 4 + static_cast<int>((n / 5) % 2);
    const int pigeons = holes + 1;
    num_vars = pigeons * holes;
    std::vector<int> label(static_cast<std::size_t>(num_vars));
    std::iota(label.begin(), label.end(), 1);
    rng_.shuffle(label);
    auto x = [&](int p, int h) {
      return label[static_cast<std::size_t>(p * holes + h)];
    };
    for (int p = 0; p < pigeons; ++p) {
      std::vector<int> cl;
      for (int h = 0; h < holes; ++h) cl.push_back(x(p, h));
      rng_.shuffle(cl);
      clauses.push_back(std::move(cl));
    }
    for (int h = 0; h < holes; ++h)
      for (int p = 0; p < pigeons; ++p)
        for (int q = p + 1; q < pigeons; ++q)
          clauses.push_back({-x(p, h), -x(q, h)});
  }
  rng_.shuffle(clauses);
  std::string body = util::format("course cnf hw4\np cnf %d %d\n", num_vars,
                                  static_cast<int>(clauses.size()));
  for (const auto& cl : clauses) {
    for (const int lit : cl) body += std::to_string(lit) + " ";
    body += "0\n";
  }
  const double exit_code = sat ? 10.0 : 20.0;
  return {std::move(body), {false, exit_code, exit_code}};
}

double grade_artifact(const Fixtures& fx, const std::string& body,
                      LayerClock* clock) {
  const auto nl = body.find('\n');
  if (body.rfind("course ", 0) != 0 || nl == std::string::npos)
    throw std::invalid_argument("submission without a course header");
  const std::string_view header(body.data() + 7, nl - 7);
  const std::string_view course = header.substr(0, header.find(' '));
  std::string text = body.substr(nl + 1);
  if (course == "route") {
    LayerClock::Scope t(clock, kGradeRoute);
    api::RouteGradeRequest req;
    req.submission = std::move(text);
    return api::grade_route_submission(fx.route_problem, fx.route_digest, req)
        .grade.score;
  }
  if (course == "place") {
    LayerClock::Scope t(clock, kGradePlace);
    api::PlaceGradeRequest req;
    req.submission = std::move(text);
    req.reference_hpwl = fx.place_ref_hpwl;
    return api::grade_place_submission(fx.place_problem, fx.place_grid,
                                       fx.place_digest, req)
        .grade.score;
  }
  if (course == "pla") {
    LayerClock::Scope t(clock, kGradePla);
    api::EspressoRequest req;
    req.pla = std::move(text);
    const auto res = api::minimize_pla(req);
    if (res.exit_code != 0) throw std::runtime_error(res.status.to_string());
    return count_pla_cubes(res.output);
  }
  if (course == "cnf") {
    LayerClock::Scope t(clock, kGradeCnf);
    api::SatRequest req;
    req.dimacs = std::move(text);
    const auto res = api::solve_sat(req);
    if (res.exit_code != 10 && res.exit_code != 20)
      throw std::runtime_error(res.status.to_string());
    return res.exit_code;
  }
  throw std::invalid_argument("unknown course '" + std::string(course) + "'");
}

}  // namespace e2e
