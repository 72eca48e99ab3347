#pragma once
// The shared request spine of every api::*Request struct. Before this
// header each facade hand-copied the same two cross-cutting knobs --
// the wall-clock limit and the cache policy -- with per-struct comments
// drifting out of sync. They live here once, with the one rule every
// facade follows:
//
//   * time_limit_ms >= 0 disables caching. Where a deadline stops an
//     engine is not reproducible, so deadline-limited results are never
//     stored or replayed. Engines without an internal wall-clock budget
//     (espresso, mls, place, route, place-grade) still honor the rule at
//     the cache layer: the limit marks the result non-reproducible even
//     if the engine itself runs to completion.
//   * use_cache = false opts a single request out of the result cache.
//
// cacheable() is the facade's whole decision. The process-wide switch
// (cache::set_enabled, a tool's --no-cache) is read by cache::Cache
// alone: with it off, a cacheable request's lookup misses and its
// insert is dropped.
//
// Deliberately NOT in the base: the deterministic budgets (prop_limit,
// node_limit, step_limit, conflict_limit). Their units differ per engine
// (propagations vs BDD nodes vs graded nets) and each joins its facade's
// config digest, so a shared field would blur exactly the knobs the
// digests must pin. The lint/sema gates are tool-level concerns and stay
// in tools::CommonFlags.
//
// tools/common_cli.hpp registers --time-limit-ms once and fills the base
// for every portal (see add_request_flags), ending the per-tool copies.

#include <cstdint>

namespace l2l::api {

struct RequestBase {
  /// -1 = unlimited; >= 0 enables the engine's wall-clock deadline where
  /// supported and always disables caching (see header comment).
  std::int64_t time_limit_ms = -1;
  /// Per-request cache opt-out.
  bool use_cache = true;

  /// The one cacheability rule, spelled once: opted in AND free of a
  /// wall-clock deadline. Facades AND this only with engine-specific
  /// reproducibility conditions (e.g. a non-null Budget pointer in
  /// RouterOptions).
  bool cacheable() const { return use_cache && time_limit_ms < 0; }
};

}  // namespace l2l::api
