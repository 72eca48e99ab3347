#include "route/solution.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "util/strings.hpp"

namespace l2l::route {

std::string write_solution(const RouteSolution& sol) {
  std::string out = util::format("%d\n", static_cast<int>(sol.nets.size()));
  for (const auto& net : sol.nets) {
    out += util::format("net %d\n", net.net_id);
    for (const auto& c : net.cells)
      out += util::format("(%d %d %d)\n", c.x, c.y, c.layer);
    out += "!\n";
  }
  return out;
}

namespace {

/// The three integers of a "(x y l)" cell line, read in one pass: tokens
/// are the maximal runs of characters other than '(', ')', ' ' and '\t',
/// and the line is well formed iff there are exactly three and each reads
/// as util::parse_int would read it -- surrounding whitespace trimmed, one
/// leading '+' accepted, a value outside int rejected. Fusing the scan
/// and the parse reads the route parse ~15% faster than tokenizing and
/// calling parse_int (BM_ParseSolution); checker_oracle_test holds the
/// two readings equal.
std::optional<GridPoint> scan_cell(std::string_view t) {
  const auto is_delim = [](char ch) {
    return ch == '(' || ch == ')' || ch == ' ' || ch == '\t';
  };
  // The whitespace parse_int trims that is not a delimiter here.
  const auto is_space = [](char ch) {
    return ch == '\n' || ch == '\v' || ch == '\f' || ch == '\r';
  };
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  int value[3] = {};
  int n = 0;
  for (std::size_t i = 0;;) {
    while (i < t.size() && is_delim(t[i])) ++i;
    if (i == t.size()) break;
    if (n == 3) return std::nullopt;
    while (i < t.size() && is_space(t[i])) ++i;
    if (i < t.size() && t[i] == '+') ++i;
    const bool negative = i < t.size() && t[i] == '-';
    if (negative) ++i;
    const std::size_t digits = i;
    std::int64_t magnitude = 0;
    for (; i < t.size() && t[i] >= '0' && t[i] <= '9'; ++i) {
      magnitude = magnitude * 10 + (t[i] - '0');
      if (magnitude > kIntMax + 1) return std::nullopt;
    }
    if (i == digits || (!negative && magnitude > kIntMax)) return std::nullopt;
    while (i < t.size() && is_space(t[i])) ++i;
    if (i < t.size() && !is_delim(t[i])) return std::nullopt;
    value[n++] = static_cast<int>(negative ? -magnitude : magnitude);
  }
  if (n != 3) return std::nullopt;
  return GridPoint{value[0], value[1], value[2]};
}

}  // namespace

ParsedSolution parse_solution_lenient(const std::string& text) {
  ParsedSolution out;
  int lineno = 0;
  bool have_header = false;
  NetRoute current;
  bool in_block = false;
  bool poisoned = false;  // current block had a malformed line: drop it

  auto diag = [&](std::string_view raw, std::string msg) {
    out.diagnostics.push_back(
        util::make_error(lineno, util::content_column(raw), std::move(msg)));
  };

  util::for_each_line(text, [&](int n, std::string_view line) {
    lineno = n;
    const auto t = util::trim(line);
    if (t.empty()) return true;
    const bool is_net_header = util::starts_with(t, "net ");
    if (!have_header && !is_net_header) {
      have_header = true;
      if (const auto count = util::parse_int(t)) {
        out.declared_nets = *count;
      } else {
        diag(line, "expected net count, got '" + util::excerpt(t) + "'");
      }
      return true;
    }
    have_header = true;
    if (is_net_header) {
      if (in_block) {
        diag(line, "new net before '!' terminator; previous net dropped");
      }
      current = NetRoute{};
      in_block = true;
      poisoned = false;
      if (const auto id = util::parse_int(util::trim(t.substr(4)))) {
        current.net_id = *id;
      } else {
        diag(line, "bad net id in '" + util::excerpt(t) + "'");
        poisoned = true;
      }
      return true;
    }
    if (t == "!") {
      if (!in_block) {
        diag(line, "'!' before any net");
        return true;
      }
      if (!poisoned) {
        current.routed = !current.cells.empty();
        out.solution.nets.push_back(std::move(current));
      }
      current = NetRoute{};
      in_block = false;
      poisoned = false;
      return true;
    }
    if (t.front() == '(') {
      if (!in_block) {
        diag(line, "cell outside a net block");
        return true;
      }
      const auto cell = scan_cell(t);
      if (!cell) {
        diag(line, "bad cell line '" + util::excerpt(t) + "'");
        poisoned = true;
        return true;
      }
      if (!poisoned) current.cells.push_back(*cell);
      return true;
    }
    diag(line, "unrecognized line '" + util::excerpt(t) + "'");
    if (in_block) poisoned = true;
    return true;
  });
  if (in_block) {
    // On the last line; the column is that line's first non-blank when
    // the text does not end in '\n', else 1.
    const auto eol = text.rfind('\n');
    diag(eol == std::string::npos ? std::string_view(text)
                                  : std::string_view(text).substr(eol + 1),
         "missing final '!'; last net dropped");
  }
  if (!have_header)
    out.diagnostics.push_back(util::make_error(0, 0, "empty file"));
  else if (out.declared_nets >= 0 &&
           out.declared_nets != static_cast<int>(out.solution.nets.size()) &&
           out.diagnostics.empty())
    out.diagnostics.push_back(util::make_error(
        1, 1,
        util::format("net count mismatch: header declares %d, file has %d",
                     out.declared_nets,
                     static_cast<int>(out.solution.nets.size()))));
  return out;
}

RouteSolution parse_solution(const std::string& text) {
  auto parsed = parse_solution_lenient(text);
  if (parsed.declared_nets < 0 && parsed.diagnostics.empty())
    parsed.diagnostics.push_back(util::make_error(0, 0, "missing net count"));
  if (!parsed.diagnostics.empty())
    throw std::invalid_argument("solution: " +
                                parsed.diagnostics.front().to_string());
  return std::move(parsed.solution);
}

std::string write_problem(const gen::RoutingProblem& p) {
  std::string out =
      util::format("grid %d %d %d\n", p.width, p.height, p.num_layers);
  int obstacles = 0;
  for (const auto& layer : p.blocked)
    for (const bool b : layer) obstacles += b;
  out += util::format("obstacles %d\n", obstacles);
  for (int layer = 0; layer < p.num_layers; ++layer)
    for (int y = 0; y < p.height; ++y)
      for (int x = 0; x < p.width; ++x)
        if (p.blocked[static_cast<std::size_t>(layer)]
                     [static_cast<std::size_t>(y) * static_cast<std::size_t>(p.width) +
                      static_cast<std::size_t>(x)])
          out += util::format("(%d %d %d)\n", x, y, layer);
  out += util::format("nets %d\n", static_cast<int>(p.nets.size()));
  for (const auto& net : p.nets) {
    out += util::format("net %d %d\n", net.id, static_cast<int>(net.pins.size()));
    for (const auto& pin : net.pins)
      out += util::format("(%d %d %d)\n", pin.x, pin.y, pin.layer);
  }
  return out;
}

ParsedProblem parse_problem_lenient(std::string_view text) {
  // Sanity caps: a hostile header must not be able to trigger a
  // multi-gigabyte allocation (or a negative->huge size_t wrap) before
  // any real validation happens.
  constexpr int kMaxSide = 1 << 16;
  constexpr int kMaxLayers = 64;
  constexpr long long kMaxCells = 1LL << 26;  // 64M points across layers
  ParsedProblem out;
  auto& p = out.problem;
  using Kind = ProblemDefect::Kind;
  auto defect = [&](Kind kind, int line, std::string msg,
                    std::string hint = {}) {
    if (out.defects.size() < util::kMaxDefects)
      out.defects.push_back({kind, line, std::move(msg), std::move(hint)});
  };

  // The non-blank lines, trimmed, with their numbers; a defect at the end
  // of the file points at its last line.
  std::vector<std::pair<int, std::string_view>> lines;
  int last_line = 0;
  util::for_each_line(text, [&](int n, std::string_view raw) {
    last_line = n;
    if (const auto t = util::trim(raw); !t.empty()) lines.emplace_back(n, t);
    return true;
  });
  std::size_t at = 0;
  const auto ended = [&] { return at == lines.size(); };

  if (ended()) {
    defect(Kind::kStructure, 0, "empty problem file");
    return out;
  }
  {
    const auto [n, t] = lines[at++];
    const auto tok = util::split_views(t);
    std::optional<int> w, h, nl;
    if (tok.size() == 4 && tok[0] == "grid") {
      w = util::parse_int(tok[1]);
      h = util::parse_int(tok[2]);
      nl = util::parse_int(tok[3]);
    }
    if (!w || !h || !nl) {
      defect(Kind::kStructure, n,
             "missing or malformed grid header '" + util::excerpt(t) + "'",
             "write 'grid <width> <height> <layers>'");
      return out;  // everything below needs the grid
    }
    if (*w < 1 || *h < 1 || *w > kMaxSide || *h > kMaxSide || *nl < 1 ||
        *nl > kMaxLayers ||
        static_cast<long long>(*w) * *h * *nl > kMaxCells) {
      defect(Kind::kRange, n,
             util::format("grid %d x %d x %d outside the sane range", *w, *h,
                          *nl),
             util::format("sides <= %d, layers <= %d, cells <= %lld",
                          kMaxSide, kMaxLayers, kMaxCells));
    } else {
      p.width = *w;
      p.height = *h;
      p.num_layers = *nl;
      p.blocked.assign(static_cast<std::size_t>(p.num_layers),
                       std::vector<bool>(static_cast<std::size_t>(p.width) *
                                             static_cast<std::size_t>(p.height),
                                         false));
    }
  }
  // "<word> <count>" with a count >= 0, else a defect and nullopt.
  const auto header = [&](const char* word, const char* hint) {
    std::optional<int> count;
    if (!ended()) {
      const auto tok = util::split_views(lines[at].second);
      if (tok.size() == 2 && tok[0] == word) count = util::parse_int(tok[1]);
    }
    if (count && *count >= 0) {
      ++at;
      return count;
    }
    defect(Kind::kStructure, ended() ? 0 : lines[at].first,
           util::format("missing or malformed %s header", word), hint);
    return std::optional<int>{};
  };

  const auto obstacles =
      header("obstacles", "write 'obstacles <count>' after the grid line");
  if (!obstacles) return out;
  for (int k = 0; k < *obstacles; ++k) {
    if (ended()) {
      defect(Kind::kStructure, last_line,
             util::format("file ends after %d of %d obstacle(s)", k,
                          *obstacles));
      return out;
    }
    const auto [n, t] = lines[at++];
    const auto g = scan_cell(t);
    if (!g) {
      defect(Kind::kStructure, n,
             "bad obstacle point '" + util::excerpt(t) + "'",
             "write '(x y layer)'");
    } else if (out.has_grid() && !p.in_bounds(*g)) {
      defect(Kind::kStructure, n,
             util::format("obstacle (%d %d %d) off-grid", g->x, g->y,
                          g->layer));
    } else if (out.has_grid()) {
      p.blocked[static_cast<std::size_t>(g->layer)]
               [static_cast<std::size_t>(g->y) *
                    static_cast<std::size_t>(p.width) +
                static_cast<std::size_t>(g->x)] = true;
    }
  }

  const auto nets =
      header("nets", "write 'nets <count>' after the obstacle list");
  if (!nets) return out;
  for (int k = 0; k < *nets; ++k) {
    if (ended()) {
      defect(Kind::kStructure, last_line,
             util::format("file ends after %d of %d net(s)", k, *nets));
      break;
    }
    const auto [n, t] = lines[at++];
    const auto tok = util::split_views(t);
    std::optional<int> id, pins;
    if (tok.size() == 3 && tok[0] == "net") {
      id = util::parse_int(tok[1]);
      pins = util::parse_int(tok[2]);
    }
    if (!id || !pins || *pins < 0) {
      defect(Kind::kStructure, n, "bad net header '" + util::excerpt(t) + "'",
             "write 'net <id> <pin-count>'");
      break;  // pin lines are now unanchored; stop instead of cascading
    }
    auto& net = p.nets.emplace_back(gen::RoutingNet{*id, {}});
    out.net_lines.push_back(n);
    auto& pin_lines = out.pin_lines.emplace_back();
    for (int q = 0; q < *pins; ++q) {
      if (ended()) {
        defect(Kind::kStructure, last_line,
               util::format("file ends after %d of %d pin(s) of net %d", q,
                            *pins, *id));
        break;
      }
      const auto [pn, pt] = lines[at++];
      const auto g = scan_cell(pt);
      if (!g) {
        defect(Kind::kStructure, pn,
               "bad pin point '" + util::excerpt(pt) + "'");
        continue;
      }
      net.pins.push_back(*g);
      pin_lines.push_back(pn);
      if (out.has_grid() && !p.in_bounds(*g))
        defect(Kind::kOffGridPin, pn,
               util::format("pin (%d %d %d) of net %d off-grid", g->x, g->y,
                            g->layer, *id));
      else if (out.has_grid() && p.is_blocked(*g))
        defect(Kind::kPinOnObstacle, pn,
               util::format("pin (%d %d %d) of net %d on a blocked cell",
                            g->x, g->y, g->layer, *id),
               "a pin under an obstacle can never be reached");
    }
  }

  // Defects found after the walk, by sorting rather than by a table keyed
  // on upload-chosen values: O(N log N) whatever ids and points the
  // upload picks. Each kind keeps its first util::kMaxDefects in file
  // order; then all defects go back to file order (a file with nets has
  // no line-0 defect) and to the cap.
  const std::size_t walked = out.defects.size();

  // A net id used twice. Sorted (id, line) pairs put each id's headers in
  // one run, first header first.
  std::vector<std::pair<int, int>> ids(p.nets.size());
  for (std::size_t k = 0; k < ids.size(); ++k)
    ids[k] = {p.nets[k].id, out.net_lines[k]};
  std::sort(ids.begin(), ids.end());
  std::vector<std::array<int, 3>> repeats;  // (line, id, first line)
  for (std::size_t k = 1, first = 0; k < ids.size(); ++k) {
    if (ids[k].first != ids[first].first)
      first = k;
    else
      repeats.push_back({ids[k].second, ids[k].first, ids[first].second});
  }
  std::sort(repeats.begin(), repeats.end());
  repeats.resize(std::min(repeats.size(), util::kMaxDefects));
  for (const auto& [line, id, first] : repeats)
    out.defects.push_back(
        {Kind::kDuplicateId, line,
         util::format("duplicate net id %d (first on line %d)", id, first),
         ""});

  // A free grid point two nets have a pin on. Sorted (point, net, line)
  // tuples put each point's pins in one run, in file order; each pin of
  // the run from another net than the run's first shares its point.
  if (out.has_grid()) {
    std::vector<std::tuple<GridPoint, std::uint32_t, int>> pins;
    for (std::size_t k = 0; k < p.nets.size(); ++k)
      for (std::size_t q = 0; q < p.nets[k].pins.size(); ++q) {
        const auto& g = p.nets[k].pins[q];
        if (p.in_bounds(g) && !p.is_blocked(g))
          pins.emplace_back(g, static_cast<std::uint32_t>(k), out.pin_lines[k][q]);
      }
    std::sort(pins.begin(), pins.end());
    // (line, pin index, index of the run's first pin)
    std::vector<std::array<std::size_t, 3>> shared;
    for (std::size_t k = 1, first = 0; k < pins.size(); ++k) {
      if (std::get<0>(pins[k]) != std::get<0>(pins[first]))
        first = k;
      else if (std::get<1>(pins[k]) != std::get<1>(pins[first]))
        shared.push_back({static_cast<std::size_t>(std::get<2>(pins[k])), k, first});
    }
    std::sort(shared.begin(), shared.end());
    shared.resize(std::min(shared.size(), util::kMaxDefects));
    for (const auto& [line, k, first] : shared) {
      const auto& [g, net, pin_line] = pins[k];
      const auto& [g0, net0, line0] = pins[first];
      out.defects.push_back(
          {Kind::kSharedPin, pin_line,
           util::format("pin (%d %d %d) of net %d is also a pin of net %d "
                        "(line %d)",
                        g.x, g.y, g.layer, p.nets[net].id, p.nets[net0].id,
                        line0),
           "a point belongs to one net; move one of the pins"});
    }
  }

  if (out.defects.size() == walked) return out;
  std::stable_sort(out.defects.begin(), out.defects.end(),
                   [](const ProblemDefect& a, const ProblemDefect& b) {
                     return a.line < b.line;
                   });
  out.defects.resize(std::min(out.defects.size(), util::kMaxDefects));
  return out;
}

gen::RoutingProblem parse_problem(const std::string& text) {
  ParsedProblem parsed = parse_problem_lenient(text);
  if (!parsed.clean()) {
    const auto& d = parsed.defects.front();
    throw std::invalid_argument(
        (d.line > 0 ? util::format("problem line %d: ", d.line)
                    : std::string("problem: ")) +
        d.message);
  }
  return std::move(parsed.problem);
}

std::string render_ascii(const gen::RoutingProblem& p, const RouteSolution& sol,
                         int layer) {
  std::vector<std::string> rows(static_cast<std::size_t>(p.height),
                                std::string(static_cast<std::size_t>(p.width), '.'));
  for (int y = 0; y < p.height; ++y)
    for (int x = 0; x < p.width; ++x)
      if (p.blocked[static_cast<std::size_t>(layer)]
                   [static_cast<std::size_t>(y) * static_cast<std::size_t>(p.width) +
                    static_cast<std::size_t>(x)])
        rows[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] = '#';
  for (const auto& net : sol.nets)
    for (const auto& c : net.cells)
      if (c.layer == layer)
        rows[static_cast<std::size_t>(c.y)][static_cast<std::size_t>(c.x)] =
            static_cast<char>('a' + net.net_id % 26);
  for (const auto& net : p.nets)
    for (const auto& pin : net.pins)
      if (pin.layer == layer)
        rows[static_cast<std::size_t>(pin.y)][static_cast<std::size_t>(pin.x)] = '*';
  std::string out;
  // y grows upward in the course's convention; print top row first.
  for (int y = p.height - 1; y >= 0; --y) out += rows[static_cast<std::size_t>(y)] + "\n";
  return out;
}

}  // namespace l2l::route
