#pragma once
// Small string utilities shared by the text-based tool front-ends
// (BLIF/PLA/DIMACS parsers, the kbdd/sis script interpreters, graders).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace l2l::util {

/// The tokens of `s` -- maximal runs of characters not in `delims` -- read
/// one at a time in place: each token is a view into `s`, and walking
/// allocates nothing. This is the one tokenizer; split() and
/// split_views() collect its tokens, and the hot line parsers (DIMACS,
/// placement) walk it directly.
class TokenWalker {
 public:
  explicit TokenWalker(std::string_view s, std::string_view delims = " \t\r\n")
      : s_(s) {
    for (const char c : delims) {
      const auto u = static_cast<unsigned char>(c);
      delim_bits_[u >> 6] |= std::uint64_t{1} << (u & 63);
    }
  }

  /// The next token, or an empty view once none is left (a token is
  /// never empty).
  std::string_view next() {
    while (pos_ < s_.size() && is_delim(s_[pos_])) ++pos_;
    const std::size_t start = pos_;
    while (pos_ < s_.size() && !is_delim(s_[pos_])) ++pos_;
    return s_.substr(start, pos_ - start);
  }

 private:
  // One bit per byte value: a character test is a shift, not a search.
  bool is_delim(char c) const {
    const auto u = static_cast<unsigned char>(c);
    return (delim_bits_[u >> 6] >> (u & 63)) & 1;
  }

  std::string_view s_;
  std::uint64_t delim_bits_[4] = {};
  std::size_t pos_ = 0;
};

/// Split on any run of the given delimiter characters; empty tokens are
/// dropped (the behaviour every whitespace-separated EDA text format wants).
std::vector<std::string> split(std::string_view s,
                               std::string_view delims = " \t\r\n");

/// split() without the copies: the tokens are views into `s`.
std::vector<std::string_view> split_views(std::string_view s,
                                          std::string_view delims = " \t\r\n");

/// Calls f(line_number, line) for every '\n'-terminated line of `text`
/// (1-based numbers, terminator excluded), exactly the lines std::getline
/// would produce: a trailing newline does not open an empty last line.
/// `f` returns false to stop early.
template <typename F>
void for_each_line(std::string_view text, F&& f) {
  int lineno = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    auto eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    if (!f(++lineno, text.substr(pos, eol - pos))) return;
    pos = eol + 1;
  }
}

/// At most 60 bytes of `s`, with "..." marking a cut: hostile lines may be
/// megabytes long, and messages quoting them must stay readable.
std::string excerpt(std::string_view s);

/// How many defects a lenient parse keeps: enough for any honest upload,
/// and a bound on what a pasted megabyte of junk can make it allocate.
inline constexpr std::size_t kMaxDefects = 1000;

/// 1-based column of the first non-blank character of `line` (1 if none):
/// the column a line-anchored diagnostic points at.
int content_column(std::string_view line);

/// Strip leading and trailing whitespace.
std::string_view trim(std::string_view s);

/// ASCII lower-casing (formats in this repo are ASCII by construction).
std::string to_lower(std::string_view s);

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Join tokens with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Exception-free integer parse: the whole token must be a decimal integer
/// that fits an int, else nullopt. The hardened parsers use this instead
/// of std::stoi, which throws on garbage and on overflow.
std::optional<int> parse_int(std::string_view s);

/// Exception-free i64 parse (same contract as parse_int).
std::optional<long long> parse_int64(std::string_view s);

/// Exception-free floating-point parse: whole token, finite result.
std::optional<double> parse_double(std::string_view s);

}  // namespace l2l::util
