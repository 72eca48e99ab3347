#include "cubes/cube.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace l2l::cubes {

// Word-parallel kernel idioms (fields are the 2-bit codes, 32 per word;
// kLoMask selects every field's low bit):
//   nonzero(w)  = (w | w>>1) & kLoMask   -- bit set where field != 00
//   dontcare(w) = (w & w>>1) & kLoMask   -- bit set where field == 11
// Padding fields are 11, so they never count as empty, never count as
// literals, and survive AND/OR against other padding unchanged.

Cube::Cube(int num_vars) {
  if (num_vars < 0) throw std::invalid_argument("Cube: negative arity");
  num_vars_ = num_vars;
  const int w = num_words();
  if (w > kInlineWords)
    big_.assign(static_cast<std::size_t>(w), kAllDontCare);
}

Cube Cube::parse(std::string_view s) {
  Cube c(static_cast<int>(s.size()));
  std::uint64_t* w = c.words();
  std::uint64_t acc = 0;
  int filled = 0;
  int word = 0;
  for (const char ch : s) {
    std::uint64_t code;
    switch (ch) {
      case '0': code = static_cast<std::uint64_t>(Pcn::kNeg); break;
      case '1': code = static_cast<std::uint64_t>(Pcn::kPos); break;
      case '-':
      case '2': code = static_cast<std::uint64_t>(Pcn::kDontCare); break;
      default:
        throw std::invalid_argument("Cube::parse: bad character in cube");
    }
    acc = (acc << 2) | code;
    if (++filled == kVarsPerWord) {
      w[word++] = acc;
      acc = 0;
      filled = 0;
    }
  }
  if (filled > 0) {
    const int rest = kVarsPerWord - filled;  // in (0, 32)
    acc <<= 2 * rest;
    acc |= (std::uint64_t{1} << (2 * rest)) - 1;  // pad with don't-care
    w[word] = acc;
  }
  return c;
}

std::optional<Cube> Cube::consensus(const Cube& o) const {
  const int nw = num_words();
  const std::uint64_t* a = words();
  const std::uint64_t* b = o.words();
  int conflict = -1;
  for (int i = 0; i < nw; ++i) {
    const std::uint64_t x = a[i] & b[i];
    const std::uint64_t empties = ~(x | (x >> 1)) & kLoMask;
    if (empties == 0) continue;
    if (conflict >= 0 || std::popcount(empties) > 1)
      return std::nullopt;  // distance > 1
    // The single set bit is the field's low bit; map it back to a slot.
    const int bit = std::countr_zero(empties);
    conflict = i * kVarsPerWord + (62 - bit) / 2;
  }
  if (conflict < 0) return std::nullopt;  // distance 0
  Cube out = intersect(o);
  out.set_code(conflict, Pcn::kDontCare);
  return out;
}

std::optional<Cube> Cube::cofactor(int var, bool phase) const {
  const Pcn need = phase ? Pcn::kPos : Pcn::kNeg;
  const Pcn have = code(var);
  if (have != Pcn::kDontCare && have != need) return std::nullopt;
  Cube out = *this;
  out.set_code(var, Pcn::kDontCare);
  return out;
}

bool Cube::eval(std::uint64_t minterm) const {
  for (int v = 0; v < num_vars_; ++v) {
    const bool value = v < 64 && ((minterm >> v) & 1);
    const Pcn c = code(v);
    if (c == Pcn::kPos && !value) return false;
    if (c == Pcn::kNeg && value) return false;
    if (c == Pcn::kEmpty) return false;
  }
  return true;
}

std::string Cube::to_string() const {
  std::string s(static_cast<std::size_t>(num_vars_), '-');
  for (int v = 0; v < num_vars_; ++v) {
    switch (code(v)) {
      case Pcn::kNeg: s[static_cast<std::size_t>(v)] = '0'; break;
      case Pcn::kPos: s[static_cast<std::size_t>(v)] = '1'; break;
      case Pcn::kDontCare: break;
      case Pcn::kEmpty: s[static_cast<std::size_t>(v)] = '!'; break;
    }
  }
  return s;
}

bool Cube::operator<(const Cube& o) const {
  if (num_vars_ == o.num_vars_) {
    // Variable 0 sits in the most significant field of word 0, so plain
    // word comparison IS the positionwise lexicographic order; the
    // padding fields are identical (all don't-care) on both sides.
    const int nw = num_words();
    const std::uint64_t* a = words();
    const std::uint64_t* b = o.words();
    for (int i = 0; i < nw; ++i)
      if (a[i] != b[i]) return a[i] < b[i];
    return false;
  }
  // Mixed arity (not produced by Cover, kept for std::vector<Pcn> parity):
  // compare the common prefix, then the shorter cube orders first.
  const int n = std::min(num_vars_, o.num_vars_);
  for (int v = 0; v < n; ++v) {
    const auto a = static_cast<std::uint8_t>(code(v));
    const auto b = static_cast<std::uint8_t>(o.code(v));
    if (a != b) return a < b;
  }
  return num_vars_ < o.num_vars_;
}

}  // namespace l2l::cubes
