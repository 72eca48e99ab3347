#pragma once
// BLIF (Berkeley Logic Interchange Format) reader/writer -- the netlist
// format of SIS [11], and the interchange format of this repository's
// synthesis flow. Combinational subset: .model/.inputs/.outputs/.names/.end
// (latches are rejected; the course scoped sequential logic out, see §2.1).

#include <string>
#include <string_view>
#include <vector>

#include "network/network.hpp"
#include "util/status.hpp"

namespace l2l::network {

/// Result of the collecting parse below: every salvageable construct
/// lands in the network, every defect in a line-anchored diagnostic.
struct ParsedBlif {
  Network network;
  std::vector<util::Diagnostic> diagnostics;  ///< empty = clean parse

  bool clean() const { return diagnostics.empty(); }
};

/// One .names block as written: fanin names, the driven output name, and
/// the raw truth-table rows with the physical line each started on.
struct BlifGate {
  std::vector<std::string> fanins;  ///< may be empty (constant block)
  std::string output;
  int line = 0;  ///< the .names directive's line (1-based)
  std::vector<std::pair<std::string, int>> rows;  ///< raw cube rows + lines
};

/// A structural defect of a BLIF file, worded for the learner and
/// anchored at the physical line its logical line started on.
struct BlifDefect {
  enum class Kind { kStructure, kUnsupported };  ///< misplaced / out of scope
  Kind kind;
  int line = 0;
  std::string message;
  std::string hint;  ///< a fix-it suggestion, or empty
};

/// The name-level structure of a BLIF file: the directive skeleton before
/// any Network is built. Unlike network::Network -- which is acyclic by
/// construction (add_logic requires fanins to already exist) -- this view
/// preserves cycles, multiple drivers, and dangling references exactly as
/// the student wrote them, so the semantic analyzer (l2l::sema) can
/// diagnose them with line anchors instead of losing them to salvage.
struct BlifStructure {
  std::string model = "top";
  std::vector<std::pair<std::string, int>> inputs;   ///< name, decl line
  std::vector<std::pair<std::string, int>> outputs;  ///< name, decl line
  std::vector<BlifGate> gates;                       ///< in file order
  /// Structural defects only, in file order. Name-level problems --
  /// cycles, missing or duplicate drivers -- are NOT found here; they are
  /// the readers' job (lint's graph rules, sema, the lenient parser).
  std::vector<BlifDefect> defects;
};

/// The one BLIF tokenizer, shared by parse_blif_lenient, the L2L-Bxxx
/// lint pack and l2l::sema: continuation-aware logical lines, '#'
/// comments stripped, directives sorted into the structure above,
/// reading stopped at .end. Never throws.
BlifStructure parse_blif_structure(std::string_view text);

/// Tolerant parse reporting ALL defects in one pass (a student fixing a
/// hand-written netlist learns every mistake from a single upload).
/// Never throws on malformed input: bad cube rows, unknown directives,
/// multiply-driven or undriven signals, and cycles each become a
/// diagnostic while the rest of the network is salvaged.
ParsedBlif parse_blif_lenient(const std::string& text);

/// Strict parse: throws std::invalid_argument carrying the first
/// diagnostic when anything is malformed or unsupported.
Network parse_blif(const std::string& text);

/// Serialize a network to BLIF (dead nodes skipped).
std::string write_blif(const Network& net);

}  // namespace l2l::network
