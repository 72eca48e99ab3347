#pragma once
// The unified engine API: one include, every facade. Tools, the flow,
// the graders, and external embedders call these Request/Result pairs
// instead of reaching into engine internals; each facade owns the
// content-addressed cache keying for its engine (see src/cache/), so a
// repeated request -- same input text, same config -- is answered from
// the result cache with a byte-identical result.
//
//   api::solve_sat         DIMACS CNF            (minisat_lite portal)
//   api::run_bdd_script    kbdd calculator       (kbdd_lite portal)
//   api::minimize_pla      two-level minimizer   (espresso_lite portal)
//   api::synthesize_esop   exact ESOP synthesis  (esop_exact portal)
//   api::optimize_blif     algebraic script      (sis_lite portal / flow)
//   api::solve_axb         A x = b               (axb portal)
//   api::place_and_legalize  quadratic placement (flow stage)
//   api::route_nets        maze routing          (flow stage)
//   api::grade_route_submission / grade_place_submission  auto-graders
//
// A facade looks a request up when RequestBase::cacheable() says so; the
// cache itself honours the process-wide cache::set_enabled switch (a
// tool's --no-cache) and persists across processes with L2L_CACHE_DIR
// (see README).
//
// Every Request struct inherits api::RequestBase (api/base.hpp): the
// shared wall-clock limit + cache policy, and the one cacheability rule
// (a time limit marks a result non-reproducible and bypasses the cache).

#include "api/base.hpp"

#include "api/axb.hpp"
#include "api/bdd.hpp"
#include "api/esop.hpp"
#include "api/espresso.hpp"
#include "api/grade.hpp"
#include "api/mls.hpp"
#include "api/place.hpp"
#include "api/route.hpp"
#include "api/sat.hpp"
