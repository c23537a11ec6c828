// Adequation: mapping + scheduling of the algorithm graph onto the
// architecture graph (§3), extended for runtime-reconfigurable operators
// (§4).
//
// The heuristic is SynDEx-style greedy list scheduling: at each step the
// ready operation with the largest critical-path remainder is placed on
// the operator minimizing its finish time, accounting for
//   - computation durations (DurationTable),
//   - inter-operator communications routed hop-by-hop over media, each
//     medium being an exclusive resource,
//   - reconfiguration: placing a conditioned-vertex variant on an
//     FpgaRegion operator whose currently-loaded module differs inserts a
//     Reconfig item occupying both the region and the configuration port.
//
// With `prefetch` enabled the Reconfig item is hoisted to the earliest
// instant the region and the configuration port are simultaneously free
// ("configuration prefetching", §1/§6); without it, reconfiguration starts
// only when the operation's inputs are ready (on-demand), exposing the
// full loading latency.
//
// An Adequation is one frozen problem: its constructor builds every table
// that depends only on the graphs and the durations, and run() is const
// and reentrant, taking all that varies per run (strategy, cost model,
// selection, preloads) in AdequationOptions. The heuristic's named stages
// live in aaa/scheduler.hpp, which this header does not include.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aaa/algorithm_graph.hpp"
#include "aaa/architecture_graph.hpp"
#include "aaa/constraints.hpp"
#include "aaa/durations.hpp"
#include "aaa/schedule.hpp"
#include "util/units.hpp"

namespace pdr::aaa {

class ScheduleAnalysis;

/// Checks schedule invariants; throws pdr::Error on the first violation:
///  - no two items overlap on the same resource,
///  - every data dependency's consumer starts after its producer ends
///    (plus transfers when placed on different operators),
///  - every compute on a region is preceded by a reconfiguration loading
///    its variant (or the region already held it),
///  - reconfigurations on the same configuration port do not overlap.
void validate_schedule(const Schedule& schedule, const AlgorithmGraph& algorithm,
                       const ArchitectureGraph& architecture);
/// The same checks over an analysis already built for the schedule.
void validate_schedule(const ScheduleAnalysis& analysis);

/// Mapping strategy: the SynDEx-style heuristic, or deliberately naive
/// baselines used to quantify how much the heuristic buys.
enum class MappingStrategy : std::uint8_t {
  SynDExList,    ///< critical-path priority + earliest-finish operator (default)
  RoundRobin,    ///< topological order, operators assigned cyclically
  FirstFeasible, ///< topological order, always the first feasible operator
};

const char* mapping_strategy_name(MappingStrategy strategy);

/// One candidate evaluation the heuristic performed, for tests and
/// tooling: `predicted_end` is the non-commit estimate; when `committed`
/// is set this exact candidate was applied, and the resulting compute
/// item's end equals `predicted_end` (estimates are transactional — they
/// run the same code commit replays).
struct CandidateEval {
  graph::NodeId op = graph::kNoNode;
  std::string operator_name;
  TimeNs predicted_end = 0;
  bool committed = false;
};

/// Cost of loading `module` into `region` (e.g. partial bitstream bytes
/// over the configuration port).
using ReconfigCost = std::function<TimeNs(const std::string& region, const std::string& module)>;

/// The paper's measured Op_Dyn figure: what one region load costs when no
/// cost model is given.
inline constexpr TimeNs kPaperReconfigCost = 4'000'000;  // 4 ms

struct AdequationOptions {
  MappingStrategy strategy = MappingStrategy::SynDExList;
  /// When non-null, every candidate evaluation is appended here.
  std::vector<CandidateEval>* eval_log = nullptr;
  /// Hoist reconfiguration ahead of data availability (paper's prefetch).
  bool prefetch = true;
  /// Cost of each region load; empty charges kPaperReconfigCost.
  ReconfigCost reconfig_cost;
  /// Chosen alternative per conditioned vertex name; missing entries use
  /// the first alternative.
  std::map<std::string, std::string> selection;
  /// Modules assumed pre-loaded per region at t=0 ("" = region empty).
  std::map<std::string, std::string> preloaded;
};

struct Problem;
class Scheduler;

class Adequation {
 public:
  /// Snapshots the problem: validates both graphs and builds every table
  /// that depends only on them and on the durations (aaa/scheduler.hpp).
  /// Throws pdr::Error on an invalid graph or an operation kind with no
  /// duration entry. All three must outlive the instance and stay
  /// unchanged: run() throws once any of them was edited.
  Adequation(const AlgorithmGraph& algorithm, const ArchitectureGraph& architecture,
             const DurationTable& durations);

  /// The graphs this instance schedules.
  const AlgorithmGraph& algorithm() const { return algorithm_; }
  const ArchitectureGraph& architecture() const { return architecture_; }

  /// Pins an operation onto a named operator (a SynDEx "absolute
  /// constraint").
  void pin(const std::string& op_name, const std::string& operator_name);

  /// Applies the constraints file: every conditioned vertex whose
  /// alternatives are declared as dynamic modules of a region is pinned to
  /// that region's operator (the paper's "runtime reconfigurable parts of
  /// an component must be considered as vertices in the architecture
  /// graph", §4). Throws if alternatives of one vertex span two regions.
  void apply_constraints(const ConstraintSet& constraints);

  /// Runs the heuristic. Reentrant: runs share the problem tables read
  /// only, so one instance may run from many threads at once. Throws
  /// pdr::Error if some operation has no feasible operator, or if a graph
  /// or the duration table changed since construction.
  Schedule run(const AdequationOptions& options = {}) const;

 private:
  friend class Scheduler;

  const AlgorithmGraph& algorithm_;
  const ArchitectureGraph& architecture_;
  const DurationTable& durations_;
  std::shared_ptr<const Problem> problem_;
  std::vector<NodeId> pinned_;  ///< operator per algorithm NodeId, kNoNode if unpinned
};

}  // namespace pdr::aaa
