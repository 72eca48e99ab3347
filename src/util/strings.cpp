#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>

namespace l2l::util {

std::vector<std::string> split(std::string_view s, std::string_view delims) {
  const auto views = split_views(s, delims);
  return {views.begin(), views.end()};
}

std::vector<std::string_view> split_views(std::string_view s,
                                          std::string_view delims) {
  std::vector<std::string_view> out;
  TokenWalker walk(s, delims);
  for (auto tok = walk.next(); !tok.empty(); tok = walk.next())
    out.push_back(tok);
  return out;
}

std::string excerpt(std::string_view s) {
  constexpr std::size_t kMax = 60;
  if (s.size() <= kMax) return std::string(s);
  return std::string(s.substr(0, kMax)) + "...";
}

int content_column(std::string_view line) {
  const auto pos = line.find_first_not_of(" \t\r\n");
  return pos == std::string_view::npos ? 1 : static_cast<int>(pos) + 1;
}

std::string_view trim(std::string_view s) {
  // std::isspace's set in the "C" locale, the only one this code runs
  // in, tested inline: every parser trims every line.
  const auto space = [](char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  };
  std::size_t b = 0;
  while (b < s.size() && space(s[b])) ++b;
  std::size_t e = s.size();
  while (e > b && space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

namespace {

template <typename T>
std::optional<T> parse_integral(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  if (s.front() == '+') s.remove_prefix(1);  // from_chars rejects '+'
  T value{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  return value;
}

}  // namespace

std::optional<int> parse_int(std::string_view s) {
  return parse_integral<int>(s);
}

std::optional<long long> parse_int64(std::string_view s) {
  return parse_integral<long long>(s);
}

std::optional<double> parse_double(std::string_view s) {
  s = trim(s);
  if (s.empty()) return std::nullopt;
  if (s.front() == '+') s.remove_prefix(1);
  double value{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

}  // namespace l2l::util
