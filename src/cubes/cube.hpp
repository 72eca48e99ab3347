#pragma once
// Positional cube notation (PCN).
//
// This is the course's Week 1 representation and the data structure of MOOC
// software Project 1 ("Boolean Data Structures & Computation (URP, PCN)").
// Each variable in a cube carries a 2-bit code:
//
//   01  variable appears complemented  (x')
//   10  variable appears true          (x)
//   11  variable does not appear       (don't care)
//   00  contradiction (empty cube)     -- never stored in a normalized cube
//
// A cube is a product term; a Cover (cover.hpp) is a list of cubes and
// denotes their OR (sum-of-products).
//
// Data layout (see DESIGN.md "Data layout & kernels"): the 2-bit codes are
// packed 32 variables per uint64_t word, with variable 0 in the MOST
// significant field of word 0. That big-endian-in-word order makes plain
// word comparison agree with the historical positionwise lexicographic
// canonical order, while keeping every kernel (intersect, contains,
// distance, literal counts, empty detection) word-parallel. Unused fields
// in the trailing word -- and entirely unused inline words -- are padded
// with the don't-care code 11 so the representation is canonical and the
// defaulted operator== is exact. Cubes of up to 64 variables (every course
// workload) live entirely in the two inline words: no heap allocation.

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace l2l::cubes {

/// The 2-bit PCN code for one variable position.
enum class Pcn : std::uint8_t {
  kEmpty = 0b00,     ///< contradiction
  kNeg = 0b01,       ///< x' in the product
  kPos = 0b10,       ///< x in the product
  kDontCare = 0b11,  ///< variable absent
};

/// Bitwise AND of codes = cube intersection per position.
inline Pcn operator&(Pcn a, Pcn b) {
  return static_cast<Pcn>(static_cast<std::uint8_t>(a) &
                          static_cast<std::uint8_t>(b));
}
/// Bitwise OR of codes (used by cube "raising" during EXPAND).
inline Pcn operator|(Pcn a, Pcn b) {
  return static_cast<Pcn>(static_cast<std::uint8_t>(a) |
                          static_cast<std::uint8_t>(b));
}

class Cube {
 public:
  Cube() = default;

  /// The universal cube (all positions don't-care) over `num_vars` variables.
  explicit Cube(int num_vars);

  /// Parse the classic "input plane" string: one char per variable,
  /// '0' = complemented, '1' = true, '-' or '2' = absent. E.g. "1-0" = a c'.
  static Cube parse(std::string_view s);

  int num_vars() const { return num_vars_; }

  Pcn code(int var) const {
    const auto v = static_cast<std::uint32_t>(var);
    return static_cast<Pcn>((words()[v >> kVarShift] >> field_shift(v)) & 3u);
  }
  void set_code(int var, Pcn c) {
    const auto v = static_cast<std::uint32_t>(var);
    std::uint64_t& w = words()[v >> kVarShift];
    const int s = field_shift(v);
    w = (w & ~(std::uint64_t{3} << s)) |
        (static_cast<std::uint64_t>(c) << s);
  }

  // The kernel quartet below is defined inline: espresso's inner loops
  // call these on every cube pair, and with the definitions visible the
  // compiler collapses the word loop (1-2 iterations for course-sized
  // cubes) into straight-line branch-free code on the inline words.

  /// Number of variables that appear (positions not don't-care).
  int num_literals() const {
    const int nw = num_words();
    const std::uint64_t* w = words();
    int dc = 0;
    for (int i = 0; i < nw; ++i)
      dc += std::popcount(w[i] & (w[i] >> 1) & kLoMask);
    return nw * kVarsPerWord - dc;
  }

  /// True if some position has code 00 (the cube denotes the empty set).
  bool is_empty() const {
    const int nw = num_words();
    const std::uint64_t* w = words();
    for (int i = 0; i < nw; ++i)
      if (((w[i] | (w[i] >> 1)) & kLoMask) != kLoMask) return true;
    return false;
  }

  /// True if every position is don't-care (the cube denotes everything).
  bool is_universal() const {
    const int nw = num_words();
    const std::uint64_t* w = words();
    for (int i = 0; i < nw; ++i)
      if (w[i] != kAllDontCare) return false;
    return true;
  }

  /// Cube intersection: positionwise AND. Result may be empty.
  Cube intersect(const Cube& o) const {
    Cube out = *this;  // copy, then AND in place: no redundant DC fill
    const int nw = num_words();
    const std::uint64_t* b = o.words();
    std::uint64_t* r = out.words();
    for (int i = 0; i < nw; ++i) r[i] &= b[i];
    return out;
  }

  /// True if this cube's point set contains o's (o implies this).
  /// Positionwise: code(this) must be a superset of code(o).
  bool contains(const Cube& o) const {
    const int nw = num_words();
    const std::uint64_t* a = words();
    const std::uint64_t* b = o.words();
    for (int i = 0; i < nw; ++i)
      if ((a[i] & b[i]) != b[i]) return false;
    return true;
  }

  /// Count of positions where the positionwise AND would be 00. Distance 1
  /// means the cubes can be merged/consensused; 0 means they intersect.
  int distance(const Cube& o) const {
    const int nw = num_words();
    const std::uint64_t* a = words();
    const std::uint64_t* b = o.words();
    int d = 0;
    for (int i = 0; i < nw; ++i) {
      const std::uint64_t x = a[i] & b[i];
      d += std::popcount(~(x | (x >> 1)) & kLoMask);
    }
    return d;
  }

  /// Consensus on the (unique) conflicting variable when distance == 1.
  /// Returns nullopt when distance != 1.
  std::optional<Cube> consensus(const Cube& o) const;

  /// The cofactor of this cube with respect to literal (var, phase):
  /// nullopt if the cube requires the opposite phase (it vanishes),
  /// otherwise the cube with that position raised to don't-care.
  std::optional<Cube> cofactor(int var, bool phase) const;

  /// The cofactor of this cube with respect to cube c: nullopt if the two
  /// are disjoint, otherwise this cube with every position where c has a
  /// literal raised to don't-care. Word-parallel: this | ~c per field.
  std::optional<Cube> cofactor(const Cube& c) const {
    if (distance(c) != 0) return std::nullopt;
    Cube out = *this;
    const int nw = num_words();
    const std::uint64_t* b = c.words();
    std::uint64_t* r = out.words();
    for (int i = 0; i < nw; ++i) r[i] |= ~b[i];
    return out;
  }

  /// Calls f(var, code) for every position that is not don't-care, in
  /// unspecified order: a ctz walk over each word's literal fields, so
  /// the cost follows the literal count, not the arity.
  template <typename F>
  void for_each_literal(F&& f) const {
    const int nw = num_words();
    const std::uint64_t* w = words();
    for (int i = 0; i < nw; ++i) {
      // Low bit of every field whose code is not 11.
      for (std::uint64_t lits = ~(w[i] & (w[i] >> 1)) & kLoMask; lits != 0;
           lits &= lits - 1) {
        const int shift = std::countr_zero(lits);
        f(i * kVarsPerWord + (62 - shift) / 2,
          static_cast<Pcn>((w[i] >> shift) & 3u));
      }
    }
  }

  /// Positionwise OR with o ("raising"): this becomes the supercube of
  /// {this, o}. Word-parallel; used by espresso's REDUCE supercube step.
  Cube& or_with(const Cube& o) {
    const int nw = num_words();
    std::uint64_t* a = words();
    const std::uint64_t* b = o.words();
    for (int i = 0; i < nw; ++i) a[i] |= b[i];
    return *this;
  }

  /// Complemented-literal count: used for unateness bookkeeping.
  bool has_positive_literal(int var) const { return code(var) == Pcn::kPos; }
  bool has_negative_literal(int var) const { return code(var) == Pcn::kNeg; }

  /// Evaluate the cube on a minterm (bit i of m = value of variable i).
  bool eval(std::uint64_t minterm) const;

  /// Input-plane string ('0','1','-').
  std::string to_string() const;

  bool operator==(const Cube& o) const = default;

  /// Lexicographic order on codes; gives covers a canonical sort.
  /// (Bit-identical to the historical std::vector<Pcn> comparison.)
  bool operator<(const Cube& o) const;

 private:
  static constexpr int kVarShift = 5;        // 32 variables per word
  static constexpr int kVarsPerWord = 32;
  static constexpr int kInlineWords = 2;     // <= 64 vars: no heap
  static constexpr std::uint64_t kAllDontCare = ~std::uint64_t{0};
  /// Bits at every field's LOW bit position (even bits).
  static constexpr std::uint64_t kLoMask = 0x5555555555555555ull;

  /// Shift of variable v's 2-bit field inside its word (big-endian).
  static int field_shift(std::uint32_t v) {
    return 62 - 2 * static_cast<int>(v & (kVarsPerWord - 1));
  }
  int num_words() const { return (num_vars_ + kVarsPerWord - 1) >> kVarShift; }
  const std::uint64_t* words() const {
    return num_vars_ > kInlineWords * kVarsPerWord ? big_.data() : inline_;
  }
  std::uint64_t* words() {
    return num_vars_ > kInlineWords * kVarsPerWord ? big_.data() : inline_;
  }

  int num_vars_ = 0;
  std::uint64_t inline_[kInlineWords] = {kAllDontCare, kAllDontCare};
  std::vector<std::uint64_t> big_;  // engaged only when num_vars_ > 64
};

}  // namespace l2l::cubes
