#pragma once
// Shared plumbing for the engine facades in src/api/: cached_call, the
// one cache round trip every facade makes (lookup; on a miss compute +
// insert). A facade owns a field list (cache/wire.hpp) describing its
// result record once; cached_call encodes and decodes through it.
//
// Internal to the api module -- tools and subsystems include the facade
// headers (or the l2l/api.hpp umbrella), never this.

#include <optional>

#include "cache/cache.hpp"
#include "cache/wire.hpp"

namespace l2l::api::detail {

/// The facade cache round trip. `key` is set only when the call is
/// cacheable. Then a hit that decodes as one `fields` record is returned
/// with `cached = true`; anything else runs `compute()` and stores the
/// result's `fields` encoding under the key, unless `storable(result)`
/// says it must not be replayed. Without a key it only computes.
template <typename Result, typename Compute, typename Fields,
          typename Storable>
Result cached_call(const std::optional<cache::CacheKey>& key, Compute compute,
                   Fields fields, Storable storable) {
  if (key) {
    if (const auto hit = cache::Cache::global().lookup(*key)) {
      Result res;
      if (cache::wire::decode(*hit, res, fields)) {
        res.cached = true;
        return res;
      }
    }
  }
  Result res = compute();
  if (key && storable(res))
    cache::Cache::global().insert(*key, cache::wire::encode(res, fields));
  return res;
}

template <typename Result, typename Compute, typename Fields>
Result cached_call(const std::optional<cache::CacheKey>& key, Compute compute,
                   Fields fields) {
  return cached_call<Result>(key, compute, fields,
                             [](const Result&) { return true; });
}

}  // namespace l2l::api::detail
