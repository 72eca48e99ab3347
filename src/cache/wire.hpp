#pragma once
// l2l::cache::wire -- one field list per stored record. A record layout
// is written once, as a generic lambda over an encoder/decoder `io` and
// the record `r`:
//
//   constexpr auto result_fields = [](auto& io, auto& r) {
//     io.str(r.output);
//     io.i64(r.exit_code);
//     wire::status(io, r.status);
//   };
//   std::string bytes = wire::encode(res, result_fields);
//   bool ok = wire::decode(bytes, res, result_fields);
//
// The same list runs with a Writer (r is const) to encode and with a
// Reader (r is mutable) to decode, so the two directions cannot drift.
// The bytes are the cache layer's length-prefixed records (cache.hpp):
// each field is one record, a list is its count then its elements, and a
// nested record is one record holding its own field list's bytes.
//
// A stored record is input from outside the program (a shared disk tier,
// a journal that survived a crash), so the Reader never throws and never
// trusts a value: an enum or bounded integer outside [0, max] fails, a
// bool is 0 or 1, a list count larger than the bytes left fails before
// anything is allocated, and decode() also requires every byte consumed.
// On failure the decoded object holds a partial value; callers drop it.

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "cache/cache.hpp"
#include "util/status.hpp"

namespace l2l::cache::wire {

class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  void str(std::string_view s) { append_record(out_, s); }
  template <std::integral T>
  void i64(T v) {
    append_i64(out_, static_cast<std::int64_t>(v));
  }
  void f64(double v) { append_f64(out_, v); }
  void boolean(bool b) { append_i64(out_, b ? 1 : 0); }
  /// An enum or small integer in [0, max]; max binds only on decode.
  template <typename T>
  void upto(T v, std::type_identity_t<T> /*max*/) {
    append_i64(out_, static_cast<std::int64_t>(v));
  }
  template <typename T, typename F>
  void list(const std::vector<T>& v, F fields) {
    i64(v.size());
    elements(v, v.size(), fields);
  }
  /// The elements of a list whose count an earlier field carried.
  template <typename T, typename F>
  void elements(const std::vector<T>& v, std::size_t /*count*/, F fields) {
    for (const T& e : v) fields(*this, e);
  }
  template <typename T, typename F>
  void nested(const T& v, F fields) {
    std::string body;
    Writer inner(body);
    fields(inner, v);
    str(body);
  }

 private:
  std::string& out_;
};

class Reader {
 public:
  explicit Reader(std::string_view bytes) : in_(bytes) {}

  void str(std::string& s) { in_.next_string(s); }
  template <std::integral T>
  void i64(T& v) {
    std::int64_t x = 0;
    if (in_.next_i64(x)) v = static_cast<T>(x);
  }
  void f64(double& v) { in_.next_f64(v); }
  void boolean(bool& b) {
    std::int64_t x = 0;
    if (bounded(x, 1)) b = x != 0;
  }
  template <typename T>
  void upto(T& v, std::type_identity_t<T> max) {
    std::int64_t x = 0;
    if (bounded(x, static_cast<std::int64_t>(max))) v = static_cast<T>(x);
  }
  template <typename T, typename F>
  void list(std::vector<T>& v, F fields) {
    std::int64_t n = 0;
    if (!in_.next_i64(n) || n < 0) return fail();
    elements(v, static_cast<std::uint64_t>(n), fields);
  }
  template <typename T, typename F>
  void elements(std::vector<T>& v, std::uint64_t count, F fields) {
    // Every element takes at least one byte, so a count past the bytes
    // left is a lie; refuse it before the vector grows.
    if (count > in_.remaining()) return fail();
    v.clear();
    for (std::uint64_t k = 0; k < count && ok(); ++k)
      fields(*this, v.emplace_back());
  }
  template <typename T, typename F>
  void nested(T& v, F fields) {
    std::string_view body;
    if (!in_.next(body)) return;
    Reader inner(body);
    fields(inner, v);
    if (!inner.complete()) fail();
  }

  /// Nothing failed and every byte was consumed.
  bool complete() const { return !failed_ && in_.complete(); }

 private:
  bool ok() const { return !failed_ && !in_.failed(); }
  bool bounded(std::int64_t& x, std::int64_t max) {
    if (!in_.next_i64(x)) return false;
    if (x >= 0 && x <= max) return true;
    fail();
    return false;
  }
  void fail() { failed_ = true; }

  RecordReader in_;
  bool failed_ = false;
};

/// Append `v`'s fields to `out`.
template <typename T, typename F>
void encode_into(std::string& out, const T& v, F fields) {
  Writer w(out);
  fields(w, v);
}

template <typename T, typename F>
std::string encode(const T& v, F fields) {
  std::string out;
  encode_into(out, v, fields);
  return out;
}

/// True when `bytes` is exactly one well-formed `fields` record.
template <typename T, typename F>
bool decode(std::string_view bytes, T& v, F fields) {
  Reader r(bytes);
  fields(r, v);
  return r.complete();
}

// ---- the cross-cutting value types ----------------------------------------

/// util::Status as (code, message).
inline constexpr auto status = [](auto& io, auto& s) {
  io.upto(s.code, util::StatusCode::kInternalError);
  io.str(s.message);
};

/// One util::Diagnostic as (severity, line, column, message); a list of
/// them is io.list(diags, wire::diagnostic).
inline constexpr auto diagnostic = [](auto& io, auto& d) {
  io.upto(d.severity, util::Severity::kNote);
  io.i64(d.line);
  io.i64(d.column);
  io.str(d.message);
};

}  // namespace l2l::cache::wire
