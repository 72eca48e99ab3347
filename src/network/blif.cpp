#include "network/blif.hpp"

#include <set>
#include <stdexcept>

#include "cubes/urp.hpp"
#include "util/strings.hpp"

namespace l2l::network {

BlifStructure parse_blif_structure(std::string_view text) {
  BlifStructure out;
  using Kind = BlifDefect::Kind;

  // Pass 1: physical lines -> logical lines with continuation (\)
  // support. Each logical line keeps the physical line number it started
  // on, so every defect lands where the student's editor can jump to.
  std::string pending;
  int pending_line = 0;
  std::vector<std::pair<std::string, int>> lines;
  util::for_each_line(text, [&](int lineno, std::string_view raw) {
    auto t = util::trim(raw);
    t = util::trim(t.substr(0, t.find('#')));
    if (t.empty()) return true;
    if (pending.empty()) pending_line = lineno;
    if (t.back() == '\\') {
      pending.append(t.substr(0, t.size() - 1)).push_back(' ');
      return true;
    }
    lines.emplace_back(pending.append(t), pending_line);
    pending.clear();
    return true;
  });
  if (!pending.empty())
    out.defects.push_back(
        {Kind::kStructure, pending_line,
         "dangling '\\' line continuation at end of file",
         "complete the continued line or drop the trailing backslash"});

  // Pass 2: directives -> declarations and .names blocks.
  BlifGate* current = nullptr;
  for (const auto& [l, ln] : lines) {
    if (l[0] == '.') {
      const auto tok = util::split(l);
      current = nullptr;
      if (tok[0] == ".model") {
        if (tok.size() > 1) out.model = tok[1];
      } else if (tok[0] == ".inputs") {
        for (std::size_t k = 1; k < tok.size(); ++k)
          out.inputs.emplace_back(tok[k], ln);
      } else if (tok[0] == ".outputs") {
        for (std::size_t k = 1; k < tok.size(); ++k)
          out.outputs.emplace_back(tok[k], ln);
      } else if (tok[0] == ".names") {
        if (tok.size() < 2) {
          out.defects.push_back({Kind::kStructure, ln,
                                 ".names needs at least an output signal",
                                 "write '.names <fanins...> <output>'"});
          continue;
        }
        BlifGate gate;
        gate.fanins.assign(tok.begin() + 1, tok.end() - 1);
        gate.output = tok.back();
        gate.line = ln;
        out.gates.push_back(std::move(gate));
        current = &out.gates.back();
      } else if (tok[0] == ".end") {
        break;
      } else if (tok[0] == ".latch") {
        out.defects.push_back(
            {Kind::kUnsupported, ln,
             "sequential elements (.latch) are not supported",
             "this flow handles the combinational BLIF subset only"});
      } else {
        out.defects.push_back(
            {Kind::kUnsupported, ln,
             "unsupported directive '" + util::excerpt(tok[0]) + "'", {}});
      }
      continue;
    }
    if (!current) {
      out.defects.push_back(
          {Kind::kStructure, ln,
           "cube line '" + util::excerpt(l) + "' outside a .names block",
           "cube rows must follow a .names directive"});
      continue;
    }
    current->rows.emplace_back(l, ln);
  }
  return out;
}

ParsedBlif parse_blif_lenient(const std::string& text) {
  ParsedBlif out;
  auto diag = [&](int line, std::string msg) {
    out.diagnostics.push_back(util::make_error(line, line > 0 ? 1 : 0,
                                               std::move(msg)));
  };

  // The tokenizer is shared with lint and sema (see BlifStructure).
  BlifStructure structure = parse_blif_structure(text);
  for (const auto& d : structure.defects) diag(d.line, "BLIF: " + d.message);
  const std::vector<BlifGate>& blocks = structure.gates;

  Network& net = out.network;
  net = Network(structure.model);
  std::set<std::string> declared_inputs;
  for (const auto& [n, ln] : structure.inputs) {
    if (net.find(n)) {
      diag(ln, "BLIF: duplicate input " + n);
      continue;
    }
    declared_inputs.insert(n);
    net.add_input(n);
  }

  // Create logic nodes in dependency order: blocks may reference each other
  // in any order, so iterate until all are placed (detects cycles).
  std::vector<bool> placed(blocks.size(), false);
  std::size_t remaining = blocks.size();
  while (remaining > 0) {
    bool progress = false;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      if (placed[b]) continue;
      const auto& blk = blocks[b];
      const int arity = static_cast<int>(blk.fanins.size());
      bool ready = true;
      std::vector<NodeId> fanins;
      for (int k = 0; k < arity; ++k) {
        const auto id = net.find(blk.fanins[static_cast<std::size_t>(k)]);
        if (!id) {
          ready = false;
          break;
        }
        fanins.push_back(*id);
      }
      if (!ready) continue;
      if (net.find(blk.output)) {
        // The first driver wins and this block is dropped so the network
        // stays well-formed. A .names output that shadows a declared
        // model input gets its own diagnostic: it is a different mistake
        // (the "input" was never free), and sema's multi-driven pass
        // relies on salvaged networks never aliasing an input name.
        if (declared_inputs.count(blk.output) > 0)
          diag(blk.line, "BLIF: .names output '" + blk.output +
                             "' is also a declared model input");
        else
          diag(blk.line, "BLIF: signal '" + blk.output + "' driven twice");
        placed[b] = true;
        --remaining;
        progress = true;
        continue;
      }

      // Parse cube lines: "<inputs> <0|1>" (or just "<0|1>" for arity 0).
      cubes::Cover on(arity);
      cubes::Cover off(arity);
      bool rows_ok = true;
      for (const auto& [cl, cl_line] : blk.rows) {
        const auto tok = util::split(cl);
        std::string in_plane, out_char;
        if (arity == 0) {
          if (tok.size() != 1) {
            diag(cl_line, "BLIF: bad constant cube line");
            rows_ok = false;
            continue;
          }
          out_char = tok[0];
        } else {
          if (tok.size() != 2) {
            diag(cl_line, "BLIF: bad cube line '" + util::excerpt(cl) + "'");
            rows_ok = false;
            continue;
          }
          in_plane = tok[0];
          out_char = tok[1];
          if (static_cast<int>(in_plane.size()) != arity) {
            diag(cl_line,
                 "BLIF: cube width mismatch in '" + util::excerpt(cl) + "'");
            rows_ok = false;
            continue;
          }
          // BLIF planes are 0/1/- only ('2' is a PLA spelling).
          if (in_plane.find_first_not_of("01-") != std::string::npos) {
            diag(cl_line,
                 "BLIF: bad character in cube '" + util::excerpt(cl) + "'");
            rows_ok = false;
            continue;
          }
        }
        if (out_char != "0" && out_char != "1") {
          diag(cl_line, "BLIF: output column must be 0 or 1");
          rows_ok = false;
          continue;
        }
        (out_char == "1" ? on : off)
            .add(arity == 0 ? cubes::Cube(0) : cubes::Cube::parse(in_plane));
      }
      if (!on.empty() && !off.empty()) {
        diag(blk.line, "BLIF: mixed 0/1 output columns in one .names block");
        rows_ok = false;
      }
      if (rows_ok) {
        // BLIF semantics: 0-rows describe the OFF-set; ON = complement.
        cubes::Cover cover = !off.empty() ? cubes::complement(off) : on;
        net.add_logic(blk.output, std::move(fanins), std::move(cover));
      }
      // A block with bad rows is dropped (its output stays undriven and is
      // reported below if anything needs it), but parsing continues.
      placed[b] = true;
      --remaining;
      progress = true;
    }
    if (!progress) {
      int first_line = 0;
      for (std::size_t b = 0; b < blocks.size(); ++b)
        if (!placed[b]) {
          if (first_line == 0) first_line = blocks[b].line;
        }
      diag(first_line,
           "BLIF: unresolvable signal references (cycle or missing driver)");
      break;
    }
  }

  std::set<std::string> declared_outputs;
  for (const auto& [n, ln] : structure.outputs) {
    if (!declared_outputs.insert(n).second) {
      diag(ln, "BLIF: output " + n + " listed twice");
      continue;
    }
    const auto id = net.find(n);
    if (!id) {
      diag(ln, "BLIF: undriven output " + n);
      continue;
    }
    net.mark_output(*id);
  }
  try {
    net.validate();
  } catch (const std::exception& e) {
    diag(0, std::string("BLIF: ") + e.what());
  }
  return out;
}

Network parse_blif(const std::string& text) {
  auto parsed = parse_blif_lenient(text);
  if (!parsed.clean())
    throw std::invalid_argument(parsed.diagnostics.front().to_string());
  return std::move(parsed.network);
}

std::string write_blif(const Network& net) {
  std::string out = ".model " + net.model_name() + "\n.inputs";
  for (const NodeId id : net.inputs()) out += " " + net.node(id).name;
  out += "\n.outputs";
  for (const NodeId id : net.outputs()) out += " " + net.node(id).name;
  out += "\n";
  for (const NodeId id : net.topological_order()) {
    const auto& n = net.node(id);
    if (n.type != NodeType::kLogic) continue;
    out += ".names";
    for (const NodeId f : n.fanins) out += " " + net.node(f).name;
    out += " " + n.name + "\n";
    if (n.fanins.empty()) {
      // Constant: universal cover = 1 (emit "1"), empty cover = 0 (no rows).
      if (!n.cover.empty()) out += "1\n";
    } else {
      for (const auto& c : n.cover.cubes())
        out += c.to_string() + " 1\n";
    }
  }
  out += ".end\n";
  return out;
}

}  // namespace l2l::network
