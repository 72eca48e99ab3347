#pragma once
// Real course artifacts for the semester workloads, each carrying the
// verdict the grading service must reach on it.
//
// Four courses share the service: routing (project 4), placement
// (project 3), PLA minimization and CNF satisfiability homework. Every
// artifact is a reference solution with seeded defects, and its expected
// verdict follows from how the defect was built -- never from running
// the grader under test:
//
//   route  one route::route_all reference per semester; k routed nets
//          dropped or cut at a cell whose removal disconnects them ->
//          score 100 * (routed - k) / nets.
//   place  one legalized reference per semester; an overlap or a
//          malformed line -> score 0; swapped cells stay legal ->
//          score in [50, 100]; the untouched reference -> 100.
//   pla    a sum of products over disjoint supports (every cube an
//          essential prime). Contained rows (sema warning P101) leave
//          the minimum at the cube count; a contradictory row (sema
//          error P102) -> rejected by the pre-grade lint.
//   cnf    planted 3-SAT -> SAT (exit 10); pigeonhole PHP(h+1, h) ->
//          UNSAT (exit 20).
//
// Each body starts with the portal header "course <name> <assignment>",
// which the grade callback strips before the facade sees the text.

#include <cstdint>
#include <string>

#include "cache/digest.hpp"
#include "gen/placement_gen.hpp"
#include "gen/routing_gen.hpp"
#include "mooc/grading_service.hpp"
#include "place/legalize.hpp"
#include "report.hpp"
#include "route/router.hpp"
#include "util/rng.hpp"

namespace e2e {

enum class Course : std::uint8_t { kRoute = 0, kPlace, kPla, kCnf };
inline constexpr int kNumCourses = 4;

/// What the service must conclude about one artifact.
struct Verdict {
  bool lint_rejected = false;  ///< pre-grade sema rejects it
  double score_lo = 0.0;       ///< otherwise graded, score in [lo, hi]
  double score_hi = 0.0;

  bool accepts(const l2l::mooc::ServiceOutcome& out) const;
};

struct Artifact {
  std::string body;
  Verdict expect;
};

/// The per-semester reference problems the route and place artifacts are
/// solutions of, with the digests the grader facades key on.
struct Fixtures {
  l2l::gen::RoutingProblem route_problem;
  l2l::cache::Digest128 route_digest{};
  l2l::route::RouteSolution route_ref;
  l2l::gen::PlacementProblem place_problem;
  l2l::place::Grid place_grid;
  l2l::cache::Digest128 place_digest{};
  l2l::place::GridPlacement place_ref;
  double place_ref_hpwl = 0.0;
};

Fixtures make_fixtures(l2l::util::Rng& rng);

/// Draws artifacts with fresh seeded defects against one Fixtures.
class ArtifactMaker {
 public:
  ArtifactMaker(const Fixtures& fx, std::uint64_t seed);

  Artifact make(Course c);

 private:
  Artifact route(std::uint64_t n);
  Artifact place(std::uint64_t n);
  Artifact pla(std::uint64_t n);
  Artifact cnf(std::uint64_t n);

  const Fixtures& fx_;
  l2l::util::Rng rng_;
  /// Artifacts made so far per course. The defect kind cycles with it,
  /// so any run of artifacts holds each kind in fixed proportion and
  /// only the defects' details are drawn.
  std::uint64_t made_[kNumCourses] = {};
  int routed_nets_ = 0;
  /// Per solution net: indices of non-pin cells whose removal disconnects
  /// the net (empty for unrouted nets and nets without such a cell).
  std::vector<std::vector<int>> cut_cells_;
};

/// The grade callback under test: strip the portal header, hand the text
/// to its course's facade, return the score. Throws when an engine
/// reports an error (the service records kFailed). A null `clock` times
/// nothing.
double grade_artifact(const Fixtures& fx, const std::string& body,
                      LayerClock* clock);

}  // namespace e2e
