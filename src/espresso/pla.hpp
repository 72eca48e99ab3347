#pragma once
// Berkeley PLA-format I/O (the input format of the Espresso tool [9,10]
// deployed as a MOOC cloud portal).
//
// Supported subset: .i .o .p .ilb .ob .type fr|f .e; cube lines are
// "<input-plane> <output-plane>" with '0','1','-' inputs and '0','1','-'
// outputs ('-' in the output plane marks a don't-care for type fr).

#include <string>
#include <string_view>
#include <vector>

#include "cubes/cover.hpp"
#include "util/strings.hpp"

namespace l2l::espresso {

/// One logical output of a PLA: ON-set and DC-set covers over the inputs.
struct PlaOutput {
  std::string name;
  cubes::Cover on;  ///< ON-set
  cubes::Cover dc;  ///< don't-care set
};

struct Pla {
  int num_inputs = 0;
  std::vector<std::string> input_names;
  std::vector<PlaOutput> outputs;

  int num_outputs() const { return static_cast<int>(outputs.size()); }
};

/// Header cap: the .i/.o counts size allocations, so a hostile
/// ".o 2000000000" is a defect, not an OOM later.
inline constexpr int kMaxPlaPlanes = 4096;

/// One cube row as written: its textual planes, views into the parsed
/// text. `ok` is false when the row has a width or character defect.
struct PlaRow {
  std::string_view in, out;
  int line = 0;
  bool ok = true;
};

/// Why a text is not a PLA, worded for the learner. `line` is 1-based;
/// 0 means the file as a whole.
struct PlaDefect {
  enum class Kind { kStructure, kInputWidth, kOutputWidth, kCharacter };
  Kind kind;
  int line = 0;
  std::string message;
  std::string hint;  ///< a fix-it suggestion, or empty
};

/// The one located PLA parse, shared by the espresso front end, the
/// L2L-Pxxx lint pack and the P1xx sema pack. Lenient: it never throws,
/// records defects in file order (the first util::kMaxDefects) and keeps
/// going. Rows are textual, so readers that only compare planes need no
/// cube machinery. Reading stops at .e / .end.
struct ParsedPla {
  int num_inputs = -1;   ///< -1 = no usable .i
  int num_outputs = -1;  ///< -1 = no usable .o
  std::vector<std::string_view> input_names;   ///< last .ilb
  std::vector<std::string_view> output_names;  ///< last .ob
  int declared_rows = -1;  ///< last .p count, -1 if none
  int declared_rows_line = 0;
  std::vector<PlaRow> rows;  ///< every two-plane row after the header
  std::vector<PlaDefect> defects;

  bool clean() const { return defects.empty(); }
};

/// Rows and names view `text`: keep it alive while reading them.
ParsedPla parse_pla_lenient(std::string_view text);

/// Parse PLA text: the lenient parse when it found no defect, with the
/// covers sized once both headers are known. Throws
/// std::invalid_argument naming the first defect otherwise.
Pla parse_pla(const std::string& text);

/// Serialize (type fr; '-' output plane entries for DC cubes).
std::string write_pla(const Pla& pla);

}  // namespace l2l::espresso
