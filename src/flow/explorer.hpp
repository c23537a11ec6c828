// DesignSpaceExplorer: the parallel front end of the schedule design-space
// search. aaa::ExplorationSpace enumerates the points (mapping strategy x
// prefetch x preloaded-module seeds x variant selections); this class runs
// one adequation per point through the ScenarioRunner thread pool, scores
// them by (makespan, reconfiguration exposure) and returns the Pareto set.
//
// Determinism contract, inherited from ScenarioRunner: scenario bodies are
// pure functions of (project, point) writing only index-owned slots, and
// the merge runs serially in enumeration order — so the report (and
// `pdrflow explore` stdout) is byte-identical whatever --jobs is.
#pragma once

#include <string>
#include <vector>

#include "aaa/explorer.hpp"
#include "flow/scenario.hpp"
#include "util/units.hpp"

namespace pdr::flow {

struct ExplorerOptions {
  /// Thread-pool width (<= 1 runs inline).
  int jobs = 1;
  /// Hard ceiling on the enumerated space — a larger cross product is an
  /// explicit error, never a silent truncation.
  std::size_t max_points = 4096;
  /// Flat reconfiguration cost…
  TimeNs reconfig_cost = aaa::kPaperReconfigCost;
  /// …or a callback overriding it (e.g. per-variant cost from a bundle).
  aaa::ReconfigCost reconfig_cost_fn;
  /// Static hazard certification (pdr::verify's interval analysis) on
  /// every point's schedule before it is accepted: uncertified points are
  /// marked rejected and never simulated or scored. The prune is sound —
  /// the verifier certifies every schedule the adequation engine emits —
  /// so the surviving Pareto front is byte-identical to an unpruned run.
  bool static_pruning = true;
  /// Replaces the built-in verifier (tests, or an external feasibility
  /// oracle such as a floorplanner). Consulted only when static_pruning
  /// is true.
  aaa::ScheduleVerifier verifier;
};

struct ExplorationReport {
  std::vector<aaa::DesignPoint> points;           ///< enumeration order
  std::vector<aaa::ExplorationOutcome> outcomes;  ///< same order
  std::vector<std::size_t> pareto;                ///< indices, best makespan first
  SweepResult sweep;    ///< per-point reports + merged trace/metrics
  std::string space;    ///< axis summary (ExplorationSpace::describe)

  /// Points that failed to schedule (excluding statically rejected ones).
  std::size_t failed_points() const;
  /// Points the static verifier refused to certify (pruned, unsimulated).
  std::size_t pruned_points() const;

  /// Deterministic textual report: axis summary, Pareto table (`top` rows,
  /// 0 = the whole front) and a one-line tally. Simulated-time numbers
  /// only — wall-clock stays out, so serial and parallel runs match.
  std::string to_string(std::size_t top = 0) const;
};

class DesignSpaceExplorer {
 public:
  /// The project is copied so worker threads share an immutable snapshot.
  DesignSpaceExplorer(aaa::Project project, aaa::ExplorationSpace space,
                      ExplorerOptions options = {});

  /// Runs every design point, blocks until all finish. Throws pdr::Error
  /// when the space exceeds options.max_points.
  ExplorationReport run() const;

  const aaa::ExplorationSpace& space() const { return space_; }

 private:
  aaa::Project project_;
  aaa::ExplorationSpace space_;
  ExplorerOptions options_;
};

}  // namespace pdr::flow
