// Design-space enumeration for the adequation: the scheduling axes the
// explorer sweeps and the scoring/Pareto machinery.
//
// Related PDR work treats scheduling + placement as a search over many
// candidate solutions rather than a single heuristic run (Chen et al.,
// arXiv:1803.03748; Ding et al., arXiv:2212.05397). This header owns the
// pure, serial parts of that search: a DesignPoint is one complete
// AdequationOptions assignment, an ExplorationSpace enumerates the cross
// product of the axes, and pareto_front() keeps the outcomes no other
// point beats on both makespan and reconfiguration exposure. The parallel
// runner lives in flow::DesignSpaceExplorer, one layer up.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "aaa/adequation.hpp"
#include "aaa/project_io.hpp"

namespace pdr::aaa {

/// One candidate placement of the dynamic regions, produced by the
/// pdr::plan floorplanner and swept by the explorer as its own axis. The
/// axis carries plain priced data (per-region reconfiguration durations),
/// not fabric geometry — aaa sits below plan in the link order, and the
/// schedule only ever consumes the price.
struct FloorplanChoice {
  /// Stable display name, e.g. "plan" or "plan+1c".
  std::string name;
  /// Reconfiguration duration per FpgaRegion operator name, derived from
  /// the placement's width -> frames -> load-time chain. Regions absent
  /// from the table fall back to the explorer's base cost model.
  std::map<std::string, TimeNs> region_load_ns;
};

/// One point of the schedule design space: a complete assignment of the
/// explorer's axes (mapping strategy x prefetch x preloaded modules x
/// variant selections x floorplan).
struct DesignPoint {
  MappingStrategy strategy = MappingStrategy::SynDExList;
  bool prefetch = true;
  /// Module assumed resident per region at t=0 ("" = region empty).
  std::map<std::string, std::string> preloaded;
  /// Chosen alternative per conditioned vertex.
  std::map<std::string, std::string> selection;
  /// Candidate floorplan pricing the reconfigurations; empty name = the
  /// axis is off and the base cost model applies everywhere.
  FloorplanChoice floorplan;

  /// The AdequationOptions this point schedules with.
  AdequationOptions to_options() const;

  /// Stable display name, e.g.
  /// "syndex_list/prefetch=on/preload[D1=qpsk]/sel[mod=qam16]/fp[plan]".
  std::string name() const;
};

/// The enumerable axes of the design space.
struct ExplorationSpace {
  std::vector<MappingStrategy> strategies;
  std::vector<bool> prefetch;
  /// Per FpgaRegion operator name: candidate preloaded modules. "" means
  /// the region starts empty.
  std::vector<std::pair<std::string, std::vector<std::string>>> preloads;
  /// Per conditioned vertex name: selectable alternative names.
  std::vector<std::pair<std::string, std::vector<std::string>>> selections;
  /// Candidate floorplans (empty = axis off; from_project leaves it empty,
  /// plan::floorplan_axis populates it).
  std::vector<FloorplanChoice> floorplans;

  /// Derives the full space from a project: all three strategies, both
  /// prefetch settings, per region every alternative the region's duration
  /// entries support (plus empty), per conditioned vertex every
  /// alternative.
  static ExplorationSpace from_project(const Project& project);

  /// Cross product of all axes, in a stable enumeration order.
  std::vector<DesignPoint> enumerate() const;

  /// Size of the cross product without materializing it.
  std::size_t point_count() const;

  /// One-line axis summary, e.g.
  /// "3 strategies x 2 prefetch x 3 preloads[D1] x 2 selections[mod]".
  std::string describe() const;
};

/// Scheduling result of one design point.
struct ExplorationOutcome {
  TimeNs makespan = 0;
  TimeNs reconfig_exposed = 0;
  int reconfig_count = 0;
  bool ok = false;
  bool rejected = false;  ///< the static verifier refused to certify the schedule
  std::string error;      ///< non-empty when scheduling this point failed
};

/// Static feasibility oracle consulted on a point's schedule before it is
/// accepted (and before anything simulates it): return "" to certify, or
/// a rejection message to mark the point `rejected`. The production
/// oracle is pdr::verify's interval analyzer, injected one layer up by
/// flow::DesignSpaceExplorer — aaa sits below verify in the link order
/// and cannot name it directly. The oracle reads the schedule through the
/// one analysis run_design_point also validates it with.
using ScheduleVerifier = std::function<std::string(const ScheduleAnalysis& analysis,
                                                   const DesignPoint& point)>;

/// Schedules one point on `adequation` under `reconfig_cost` (empty: the
/// paper's 4 ms), runs the verifier (when given) and validates the result
/// against the instance's own graphs. A point with a floorplan prices the
/// regions it places from its load table. Never throws: infeasible
/// points (e.g. a selected variant no operator supports) come back with
/// ok = false and the error message; uncertified points additionally
/// carry rejected = true.
ExplorationOutcome run_design_point(const Adequation& adequation, const DesignPoint& point,
                                    const ReconfigCost& reconfig_cost,
                                    const ScheduleVerifier& verifier = {});

/// Indices of the Pareto-optimal outcomes, minimizing
/// (makespan, reconfig_exposed): a point survives iff no other successful
/// point is at least as good on both axes and strictly better on one.
/// Sorted by makespan, then exposure, then index. Failed outcomes never
/// appear.
std::vector<std::size_t> pareto_front(const std::vector<ExplorationOutcome>& outcomes);

}  // namespace pdr::aaa
