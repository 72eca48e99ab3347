#pragma once
// Placement solution text: one "cell <index> <col> <row>" line per cell,
// '#' comments and blank lines ignored. This is the one located parse of
// the format; the placement grader and the L2L-Lxxx lint pack both read
// it, so a graded upload is tokenized once.

#include <string_view>
#include <vector>

#include "place/legalize.hpp"

namespace l2l::place {

/// One well-formed "cell" line with an in-range index.
struct PlacementLine {
  int cell = 0, col = 0, row = 0;
  int line = 0;  ///< 1-based
};

/// Why a line (or the file) is not a valid assignment.
struct PlacementDefect {
  enum class Kind {
    kBadLine,         ///< not "cell <id> <col> <row>"
    kBadNumber,       ///< a field is not an int
    kCellOutOfRange,  ///< index < 0, or >= the cell count when known
    kDuplicateCell,   ///< a second line for `cell`
    kMissingCells,    ///< `count` cells unassigned; `cell` is the first
  };
  Kind kind;
  int line = 0;    ///< 1-based; 0 for kMissingCells
  int column = 0;  ///< first non-blank column of the line; 0 for the file
  std::string_view text;  ///< the trimmed line (kBadLine, kBadNumber)
  int cell = -1;
  int count = 0;
};

struct ParsedPlacement {
  /// Sized to the cell count when it is known; a cell keeps its last
  /// assignment, and cells without a line stay at the -1 sentinel. A
  /// cell counts as assigned while its column is non-negative, so a
  /// negative column reads as unassigned (and leaves the grid illegal).
  GridPlacement placement;
  std::vector<PlacementLine> lines;  ///< in file order, repeats included
  std::vector<PlacementDefect> defects;  ///< in file order

  bool clean() const { return defects.empty(); }
};

/// Lenient parse reporting every malformed line in one pass; never
/// throws. `num_cells` < 0 means the cell count is unknown: only negative
/// indices are out of range, and repeats and completeness are not
/// checked (no placement is built). Defect texts view `text`: keep it
/// alive while reading them.
ParsedPlacement parse_placement_lenient(std::string_view text, int num_cells);

}  // namespace l2l::place
