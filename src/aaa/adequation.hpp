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
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "aaa/algorithm_graph.hpp"
#include "aaa/architecture_graph.hpp"
#include "aaa/constraints.hpp"
#include "aaa/durations.hpp"
#include "aaa/schedule.hpp"
#include "graph/ready.hpp"
#include "obs/trace.hpp"
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

/// Ready-operation selection engine. IndexedHeap is the production path:
/// per-node indegree counters feed a priority heap, so each round pops the
/// next operation in O(log V) instead of rescanning every pending
/// operation (O(V) per round, O(V^2 * deg) per schedule). RescanReference
/// keeps the old loop alive purely as a benchmark/equivalence baseline —
/// both engines share the same candidate evaluation and commit code and
/// produce byte-identical schedules.
enum class ReadyPolicy : std::uint8_t { IndexedHeap, RescanReference };

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

struct AdequationOptions {
  MappingStrategy strategy = MappingStrategy::SynDExList;
  ReadyPolicy ready_policy = ReadyPolicy::IndexedHeap;
  /// When non-null, every candidate evaluation is appended here.
  std::vector<CandidateEval>* eval_log = nullptr;
  /// Hoist reconfiguration ahead of data availability (paper's prefetch).
  bool prefetch = true;
  /// Chosen alternative per conditioned vertex name; missing entries use
  /// the first alternative.
  std::map<std::string, std::string> selection;
  /// Modules assumed pre-loaded per region at t=0 ("" = region empty).
  std::map<std::string, std::string> preloaded;
  /// Name of the configuration-port pseudo resource.
  std::string config_port_name = "CFGPORT";
};

class Adequation {
 public:
  /// Cost of loading `module` into `region` (e.g. partial bitstream bytes
  /// over the configuration port).
  using ReconfigCost = std::function<TimeNs(const std::string& region, const std::string& module)>;

  Adequation(const AlgorithmGraph& algorithm, const ArchitectureGraph& architecture,
             const DurationTable& durations);

  /// The graphs this instance schedules.
  const AlgorithmGraph& algorithm() const { return algorithm_; }
  const ArchitectureGraph& architecture() const { return architecture_; }

  /// Sets the reconfiguration cost model (default: 4 ms flat, the paper's
  /// measured Op_Dyn figure).
  void set_reconfig_cost(ReconfigCost cost);

  /// Pins an operation onto a named operator (a SynDEx "absolute
  /// constraint").
  void pin(const std::string& op_name, const std::string& operator_name);

  /// Applies the constraints file: every conditioned vertex whose
  /// alternatives are declared as dynamic modules of a region is pinned to
  /// that region's operator (the paper's "runtime reconfigurable parts of
  /// an component must be considered as vertices in the architecture
  /// graph", §4). Throws if alternatives of one vertex span two regions.
  void apply_constraints(const ConstraintSet& constraints);

  /// Runs the heuristic. Throws pdr::Error if some operation has no
  /// feasible operator. Graph-shaped scaffolding (ready tracker snapshot,
  /// dependency CSR, critical-path priorities) is cached across calls on
  /// one instance and invalidated via the graph/duration-table version
  /// counters, so repeated runs over an unchanged problem pay for it once:
  /// the planner's candidates, bench repeats, and the explorer's points,
  /// which share one instance per concurrently running point
  /// (flow::DesignSpaceExplorer). The cache makes run() non-reentrant:
  /// concurrent calls on one Adequation instance are not supported.
  Schedule run(const AdequationOptions& options = {}) const;

 private:
  /// One dependency row of the cached in-edge CSR: producer node, payload
  /// and edge id of a `src -> consumer` data dependency.
  struct InEdgeRow {
    graph::NodeId src;
    Bytes bytes = 0;
    graph::EdgeId e = graph::kNoEdge;
  };

  /// Per-instance scaffolding reused across run() calls; every entry is a
  /// pure restatement of the algorithm graph (plus durations, for the
  /// priorities), so version counters are the only invalidation needed.
  /// Nothing in it depends on the options or the cost model, so one
  /// instance serves points that differ in either.
  struct RunCache {
    std::uint64_t algo_version = static_cast<std::uint64_t>(-1);
    std::uint64_t durations_version = static_cast<std::uint64_t>(-1);
    std::optional<graph::ReadyTracker> tracker;  ///< pristine snapshot
    std::vector<std::size_t> in_off;             ///< CSR offsets, node -> rows
    std::vector<InEdgeRow> in_rows;              ///< CSR rows, edge-id order
    bool has_remainder = false;
    std::vector<double> remainder;  ///< critical-path priorities (SynDExList)
  };

  const AlgorithmGraph& algorithm_;
  const ArchitectureGraph& architecture_;
  const DurationTable& durations_;
  ReconfigCost reconfig_cost_;
  std::map<std::string, std::string> pins_;
  mutable RunCache cache_;
};

}  // namespace pdr::aaa
