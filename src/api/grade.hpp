#pragma once
// Auto-grader facades: the cached text-in/grade-out entry points the
// grading service's callbacks, tools, and benchmarks share. The facade owns
// the keying -- submission text digested as the input, problem digest
// folded into the config together with the deterministic limits -- so
// "the same submission against the same problem is graded once" holds
// across every consumer of these functions.
//
// Engine ids "grader.route" / "grader.place". Wall-clock-limited grading
// bypasses the cache (a deadline's trip point is not reproducible); the
// deterministic step_limit joins the config digest.

#include <cstdint>
#include <string>

#include "api/base.hpp"
#include "cache/digest.hpp"
#include "gen/placement_gen.hpp"
#include "gen/routing_gen.hpp"
#include "grader/place_grader.hpp"
#include "grader/route_grader.hpp"

namespace l2l::api {

/// time_limit_ms / use_cache come from RequestBase (api/base.hpp).
struct RouteGradeRequest : RequestBase {
  std::string submission;
  std::int64_t step_limit = -1;  ///< budget steps (one per net graded)
};

struct RouteGradeResult {
  grader::RouteGrade grade;
  bool cached = false;
};

RouteGradeResult grade_route_submission(const gen::RoutingProblem& problem,
                                        const RouteGradeRequest& req);

/// Digest-reusing variant: the caller precomputes routing_problem_digest
/// once and reuses it for every submission against the same problem.
RouteGradeResult grade_route_submission(const gen::RoutingProblem& problem,
                                        const cache::Digest128& problem_digest,
                                        const RouteGradeRequest& req);

/// time_limit_ms / use_cache come from RequestBase (api/base.hpp); the
/// placement grader has no internal wall-clock budget, so a time limit
/// only marks the request uncacheable.
struct PlaceGradeRequest : RequestBase {
  std::string submission;
  double reference_hpwl = 0.0;
};

struct PlaceGradeResult {
  grader::PlaceGrade grade;
  bool cached = false;
};

PlaceGradeResult grade_place_submission(const gen::PlacementProblem& problem,
                                        const place::Grid& grid,
                                        const PlaceGradeRequest& req);

PlaceGradeResult grade_place_submission(const gen::PlacementProblem& problem,
                                        const place::Grid& grid,
                                        const cache::Digest128& problem_digest,
                                        const PlaceGradeRequest& req);

}  // namespace l2l::api
