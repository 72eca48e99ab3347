#pragma once
// Shared plumbing for the engine facades in src/api/: serialization of
// the cross-cutting value types (Status, Diagnostic) into the cache's
// length-prefixed record format, and cached_call, the one cache round
// trip every facade makes (lookup; on a miss compute + insert).
//
// Internal to the api module -- tools and subsystems include the facade
// headers (or the l2l/api.hpp umbrella), never this.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache.hpp"
#include "util/status.hpp"

namespace l2l::api::detail {

/// Append a Status as (code, message) records.
void append_status(std::string& out, const util::Status& status);
bool read_status(cache::RecordReader& in, util::Status& status);

/// Append a Diagnostic list as (count, then per-entry severity/line/
/// column/message) records.
void append_diagnostics(std::string& out,
                        const std::vector<util::Diagnostic>& diags);
bool read_diagnostics(cache::RecordReader& in,
                      std::vector<util::Diagnostic>& diags);

/// The facade cache round trip. `key` is set only when the call is
/// cacheable. Then a hit that `decode(bytes, result)` accepts is returned
/// with `cached = true`; anything else runs `compute()` and stores
/// `encode(result)` under the key. `encode` may return std::nullopt for
/// a result that must not be replayed. Without a key it only computes.
template <typename Result, typename Decode, typename Compute,
          typename Encode>
Result cached_call(const std::optional<cache::CacheKey>& key, Decode decode,
                   Compute compute, Encode encode) {
  if (key) {
    if (const auto hit = cache::Cache::global().lookup(*key)) {
      Result res;
      if (decode(std::string_view(*hit), res)) {
        res.cached = true;
        return res;
      }
    }
  }
  Result res = compute();
  if (key) {
    const std::optional<std::string> bytes = encode(res);
    if (bytes) cache::Cache::global().insert(*key, *bytes);
  }
  return res;
}

}  // namespace l2l::api::detail
