// BLIF rule pack (L2L-Bxxx): structural analysis of a combinational BLIF
// netlist without building covers or running any engine. The pack reads
// network::parse_blif_structure, the tokenizer the BLIF parser and sema
// share (directive records with the source line of every signal
// mention), then runs graph rules over the name-level netlist: driver
// multiplicity, undriven uses, cycles (iterative DFS -- hostile inputs
// may nest thousands deep), dangling nodes, and per-row truth table
// shape checks.

#include <map>

#include "lint/lint.hpp"
#include "network/blif.hpp"
#include "util/strings.hpp"

namespace l2l::lint {

std::vector<Finding> lint_blif(const std::string& text) {
  std::vector<Finding> out;
  auto emit = [&](const char* rule, util::Severity sev, int line,
                  std::string msg, std::string hint = {}) {
    out.push_back({rule, sev, line, line > 0 ? 1 : 0, std::move(msg),
                   std::move(hint)});
  };

  const network::BlifStructure st = network::parse_blif_structure(text);
  for (const auto& d : st.defects)
    emit(d.kind == network::BlifDefect::Kind::kUnsupported ? "L2L-B002"
                                                           : "L2L-B001",
         util::Severity::kError, d.line, d.message, d.hint);

  // Declarations: a repeated input is B004, a repeated output B007.
  std::vector<std::string> inputs, outputs;
  std::map<std::string, int> input_line, output_line;
  for (const auto& [name, line] : st.inputs) {
    const auto [it, fresh] = input_line.try_emplace(name, line);
    if (!fresh)
      emit("L2L-B004", util::Severity::kError, line,
           "input '" + name + "' declared twice (first on line " +
               std::to_string(it->second) + ")",
           "remove the duplicate declaration");
    else
      inputs.push_back(name);
  }
  for (const auto& [name, line] : st.outputs) {
    const auto [it, fresh] = output_line.try_emplace(name, line);
    if (!fresh)
      emit("L2L-B007", util::Severity::kError, line,
           "output '" + name + "' listed twice (first on line " +
               std::to_string(it->second) + ")",
           "each output name may appear once in .outputs");
    else
      outputs.push_back(name);
  }
  const auto& blocks = st.gates;

  // Drivers: .inputs and every .names output. Multiplicity > 1 = B004.
  std::map<std::string, int> driver_line;  // name -> first driving line
  for (const auto& name : inputs) driver_line.emplace(name, input_line[name]);
  for (const auto& b : blocks) {
    const auto& name = b.output;
    const auto [it, fresh] = driver_line.try_emplace(name, b.line);
    if (!fresh)
      emit("L2L-B004", util::Severity::kError, b.line,
           "net '" + name + "' multiply driven (first driver on line " +
               std::to_string(it->second) + ")",
           "merge the blocks or rename one output");
  }

  // Undriven uses (B003): fanins and declared outputs with no driver.
  // One finding per name, anchored at the first offending mention.
  std::map<std::string, int> undriven;  // name -> first use line
  for (const auto& b : blocks)
    for (const auto& fanin : b.fanins)
      if (!driver_line.count(fanin)) undriven.try_emplace(fanin, b.line);
  for (const auto& name : outputs)
    if (!driver_line.count(name)) {
      const auto it = undriven.find(name);
      if (it == undriven.end() || output_line[name] < it->second)
        undriven[name] = output_line[name];
    }
  for (const auto& [name, line] : undriven)
    emit("L2L-B003", util::Severity::kError, line,
         "undriven net '" + name + "'",
         "add a .names block driving it or declare it in .inputs");

  // Combinational cycles (B005): iterative DFS over the signal graph
  // (edges fanin -> output). Hostile inputs may chain thousands of
  // blocks, so no recursion. Blocks are visited in file order and each
  // cycle is reported once, at its closing block.
  {
    std::map<std::string, std::size_t> producer;  // output name -> block
    for (std::size_t b = 0; b < blocks.size(); ++b)
      producer.try_emplace(blocks[b].output, b);
    // 0 = white, 1 = on stack, 2 = done.
    std::vector<int> color(blocks.size(), 0);
    for (std::size_t root = 0; root < blocks.size(); ++root) {
      if (color[root] != 0) continue;
      // Stack of (block, next fanin index to expand).
      std::vector<std::pair<std::size_t, std::size_t>> stack{{root, 0}};
      color[root] = 1;
      while (!stack.empty()) {
        auto& [b, next] = stack.back();
        const auto& fanins = blocks[b].fanins;
        if (next >= fanins.size()) {
          color[b] = 2;
          stack.pop_back();
          continue;
        }
        const auto it = producer.find(fanins[next++]);
        if (it == producer.end()) continue;  // input or undriven
        if (color[it->second] == 1) {
          emit("L2L-B005", util::Severity::kError, blocks[b].line,
               "combinational cycle through net '" +
                   blocks[it->second].output + "'",
               "break the feedback loop; this flow is acyclic");
        } else if (color[it->second] == 0) {
          color[it->second] = 1;
          stack.emplace_back(it->second, 0);
        }
      }
    }
  }

  // Fanout analysis: dangling internal nodes (B006) and unused inputs
  // (B009). "Used" = appears as some block's fanin or is an output.
  {
    std::map<std::string, bool> used;
    for (const auto& b : blocks)
      for (const auto& fanin : b.fanins) used[fanin] = true;
    for (const auto& name : outputs) used[name] = true;
    for (const auto& b : blocks) {
      const auto& name = b.output;
      if (!used.count(name))
        emit("L2L-B006", util::Severity::kWarning, b.line,
             "dangling node '" + name + "' drives nothing",
             "remove it or add it to .outputs");
    }
    for (const auto& name : inputs)
      if (!used.count(name))
        emit("L2L-B009", util::Severity::kWarning, input_line[name],
             "input '" + name + "' is never used");
  }

  // Per-row truth-table shape (B008).
  for (const auto& b : blocks) {
    const auto arity = b.fanins.size();
    bool saw_on = false, saw_off = false;
    int mixed_line = 0;
    for (const auto& [text, line] : b.rows) {
      const auto tok = util::split_views(text);
      std::string_view out_col;
      if (arity == 0) {
        if (tok.size() != 1) {
          emit("L2L-B008", util::Severity::kError, line,
               "constant block row '" + util::excerpt(text) +
                   "' must be a single 0 or 1");
          continue;
        }
        out_col = tok[0];
      } else {
        if (tok.size() != 2) {
          emit("L2L-B008", util::Severity::kError, line,
               "cube row '" + util::excerpt(text) +
                   "' must be '<plane> <0|1>'");
          continue;
        }
        if (tok[0].size() != arity) {
          emit("L2L-B008", util::Severity::kError, line,
               util::format("cube width %d does not match %d fanin(s)",
                            static_cast<int>(tok[0].size()),
                            static_cast<int>(arity)),
               "one column per fanin of the .names block");
          continue;
        }
        for (const char c : tok[0])
          if (c != '0' && c != '1' && c != '-') {
            emit("L2L-B008", util::Severity::kError, line,
                 std::string("bad input-plane character '") + c + "'",
                 "use 0, 1, or -");
            break;
          }
        out_col = tok[1];
      }
      if (out_col == "1")
        saw_on = true;
      else if (out_col == "0")
        saw_off = true;
      else
        emit("L2L-B008", util::Severity::kError, line,
             "output column must be 0 or 1, got '" + util::excerpt(out_col) +
                 "'");
      if (saw_on && saw_off && mixed_line == 0) mixed_line = line;
    }
    if (mixed_line > 0)
      emit("L2L-B008", util::Severity::kError, mixed_line,
           "block '" + b.output + "' mixes 0 and 1 output rows",
           "a block lists either its ON-set or its OFF-set, not both");
  }

  sort_findings(out);
  return out;
}

}  // namespace l2l::lint
