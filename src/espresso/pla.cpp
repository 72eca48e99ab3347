#include "espresso/pla.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace l2l::espresso {

ParsedPla parse_pla_lenient(std::string_view text) {
  ParsedPla out;
  using Kind = PlaDefect::Kind;
  auto defect = [&](Kind kind, int line, std::string msg,
                    std::string hint = {}) {
    if (out.defects.size() < util::kMaxDefects)
      out.defects.push_back({kind, line, std::move(msg), std::move(hint)});
  };
  util::for_each_line(text, [&](int lineno, std::string_view raw) {
    const auto t = util::trim(raw);
    if (t.empty() || t[0] == '#') return true;
    if (t[0] == '.') {
      const auto tok = util::split_views(t);
      const std::string directive(tok[0]);
      const auto header_count = [&](int& count) {
        const int before = count;
        count = -1;
        if (tok.size() < 2) {
          defect(Kind::kStructure, lineno, directive + " needs a count");
          return;
        }
        const auto v = util::parse_int(tok[1]);
        if (!v || *v < 0 || *v > kMaxPlaPlanes) {
          defect(Kind::kStructure, lineno,
                 "bad " + directive + " count '" + util::excerpt(tok[1]) + "'",
                 util::format("use an integer in [0, %d]", kMaxPlaPlanes));
          return;
        }
        count = *v;
        if (!out.rows.empty() && count != before)
          defect(Kind::kStructure, lineno,
                 directive + " changes its count after cube rows",
                 "declare .i and .o once, before any cube");
      };
      if (directive == ".i") {
        header_count(out.num_inputs);
      } else if (directive == ".o") {
        header_count(out.num_outputs);
      } else if (directive == ".p") {
        if (tok.size() > 1)
          if (const auto v = util::parse_int(tok[1]); v && *v >= 0) {
            out.declared_rows = *v;
            out.declared_rows_line = lineno;
          }
      } else if (directive == ".ilb") {
        out.input_names.assign(tok.begin() + 1, tok.end());
      } else if (directive == ".ob") {
        out.output_names.assign(tok.begin() + 1, tok.end());
      } else if (directive == ".e" || directive == ".end") {
        return false;
      } else if (directive != ".type") {  // fr semantics are read everywhere
        defect(Kind::kStructure, lineno,
               "unknown directive '" + util::excerpt(directive) + "'");
      }
      return true;
    }
    if (out.num_inputs < 0 || out.num_outputs < 0) {
      defect(Kind::kStructure, lineno, "cube row before the .i/.o header",
             "declare .i and .o before any cube");
      return true;
    }
    const auto tok = util::split_views(t);
    if (tok.size() != 2) {
      defect(Kind::kStructure, lineno,
             "cube row '" + util::excerpt(t) +
                 "' must be '<inputs> <outputs>'");
      return true;
    }
    PlaRow row{tok[0], tok[1], lineno, true};
    const auto before = out.defects.size();
    if (static_cast<int>(row.in.size()) != out.num_inputs)
      defect(Kind::kInputWidth, lineno,
             util::format("input plane has %d column(s), .i declares %d",
                          static_cast<int>(row.in.size()), out.num_inputs));
    if (static_cast<int>(row.out.size()) != out.num_outputs)
      defect(Kind::kOutputWidth, lineno,
             util::format("output plane has %d column(s), .o declares %d",
                          static_cast<int>(row.out.size()), out.num_outputs));
    if (const auto bad = row.in.find_first_not_of("01-2");
        bad != std::string_view::npos)
      defect(Kind::kCharacter, lineno,
             std::string("bad input-plane character '") + row.in[bad] + "'",
             "use 0, 1, or -");
    if (const auto bad = row.out.find_first_not_of("01-2~");
        bad != std::string_view::npos)
      defect(Kind::kCharacter, lineno,
             std::string("bad output-plane character '") + row.out[bad] + "'",
             "use 0, 1, -, or ~");
    row.ok = out.defects.size() == before;
    out.rows.push_back(row);
    return true;
  });
  if (out.num_inputs < 0) defect(Kind::kStructure, 0, "missing .i header");
  if (out.num_outputs < 0) defect(Kind::kStructure, 0, "missing .o header");
  return out;
}

Pla parse_pla(const std::string& text) {
  const ParsedPla parsed = parse_pla_lenient(text);
  if (!parsed.clean()) {
    const auto& d = parsed.defects.front();
    throw std::invalid_argument(
        (d.line > 0 ? util::format("PLA line %d: ", d.line) : "PLA: ") +
        d.message);
  }
  Pla pla;
  pla.num_inputs = parsed.num_inputs;
  pla.input_names.assign(parsed.input_names.begin(), parsed.input_names.end());
  if (pla.input_names.empty())
    for (int i = 0; i < pla.num_inputs; ++i)
      pla.input_names.push_back(util::format("x%d", i));
  pla.outputs.resize(static_cast<std::size_t>(parsed.num_outputs));
  for (std::size_t k = 0; k < pla.outputs.size(); ++k) {
    auto& o = pla.outputs[k];
    o.name = k < parsed.output_names.size()
                 ? std::string(parsed.output_names[k])
                 : util::format("y%d", static_cast<int>(k));
    o.on = cubes::Cover(pla.num_inputs);
    o.dc = cubes::Cover(pla.num_inputs);
  }
  for (const auto& row : parsed.rows) {
    const auto cube = cubes::Cube::parse(row.in);
    for (std::size_t k = 0; k < pla.outputs.size(); ++k) {
      const char c = row.out[k];
      if (c == '1')
        pla.outputs[k].on.add(cube);
      else if (c == '-' || c == '2')
        pla.outputs[k].dc.add(cube);
    }
  }
  return pla;
}

std::string write_pla(const Pla& pla) {
  std::string out = util::format(".i %d\n.o %d\n", pla.num_inputs,
                                 pla.num_outputs());
  out += ".ilb " + util::join(pla.input_names, " ") + "\n";
  out += ".ob";
  for (const auto& o : pla.outputs) out += " " + o.name;
  out += "\n.type fr\n";
  // Collect all distinct cubes; emit output plane per cube.
  std::vector<std::pair<cubes::Cube, std::string>> rows;
  for (std::size_t k = 0; k < pla.outputs.size(); ++k) {
    auto emit = [&](const cubes::Cover& cover, char mark) {
      for (const auto& c : cover.cubes()) {
        bool found = false;
        for (auto& [cube, plane] : rows) {
          if (cube == c && plane[k] == '0') {
            plane[k] = mark;
            found = true;
            break;
          }
        }
        if (!found) {
          std::string plane(pla.outputs.size(), '0');
          plane[k] = mark;
          rows.emplace_back(c, plane);
        }
      }
    };
    emit(pla.outputs[k].on, '1');
    emit(pla.outputs[k].dc, '-');
  }
  out += util::format(".p %d\n", static_cast<int>(rows.size()));
  for (const auto& [cube, plane] : rows)
    out += cube.to_string() + " " + plane + "\n";
  out += ".e\n";
  return out;
}

}  // namespace l2l::espresso
