// One analysis of a schedule's safety facts.
//
// The adequation's safety argument (PAPER.md §2, §6): every operator and
// medium runs one item at a time, data moves only after its producer
// ends, a region computes only the module resident in it and is
// rewritten only while idle, and loads serialize on the one configuration
// port. aaa::validate_schedule (throws the first defect),
// lint::check_schedule (PDR040-048) and verify::verify_schedule
// (PDR100-108) are views of this analysis: each stage answers one
// question with neutral findings that the views turn into messages and
// rule codes.
//
// The constructor groups the schedule once: per-resource timelines by
// SymbolId in (start, end) order, the compute item of each NodeId, the
// transfer chain of each EdgeId, the loads, and which resources are
// operators and FPGA regions.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "aaa/algorithm_graph.hpp"
#include "aaa/architecture_graph.hpp"
#include "aaa/constraints.hpp"
#include "aaa/schedule.hpp"

namespace pdr::aaa {

inline constexpr std::size_t kNoItem = static_cast<std::size_t>(-1);

/// What a finding is about, and the Finding fields it sets.
enum class FindingKind : std::uint8_t {
  NegativeDuration,  ///< item ends before it starts (item)
  Overlap,           ///< two items overlap on one resource (first, item)
  PortOverlap,       ///< two loads overlap on the configuration port (first, item)
  Unscheduled,       ///< a dependency endpoint was never scheduled (edge, node)
  Precedence,        ///< consumer `item` starts before producer `first` ends (edge)
  MissingTransfer,   ///< a cross-operator dependency has no transfer (edge, first, item)
  WrongPayload,      ///< transfer `item` carries another byte count than its edge (edge)
  TransferWindow,    ///< transfer `item` is not between producer and consumer (edge)
  Unconfigured,      ///< variant compute `item` in a region never loaded (node)
  WrongModule,       ///< variant compute `item` while `module` is resident (node;
                     ///< first = the load, kNoItem for a preload)
  ForeignModule,     ///< load `item` brings a module declared for another region (node)
  DataCrossing,      ///< edge data sits in a region while a load rewrites it (edge):
                     ///< (producer, load) or (load, consumer) as (first, item)
};

struct Finding {
  FindingKind kind = FindingKind::Overlap;
  std::size_t first = kNoItem;          ///< earlier witness
  std::size_t item = kNoItem;           ///< the item the finding is about
  graph::EdgeId edge = graph::kNoEdge;
  graph::NodeId node = graph::kNoNode;  ///< missing operation or region operator
  std::string_view module;
};

/// A module's stay in a region: from the end of its load (0 for a
/// preload) to the start of the next load, or to the horizon.
struct Residency {
  std::string_view module;
  TimeNs from = 0;
  TimeNs to = 0;
};

class ScheduleAnalysis {
 public:
  /// The three references must outlive the analysis.
  ScheduleAnalysis(const Schedule& schedule, const AlgorithmGraph& algorithm,
                   const ArchitectureGraph& architecture);

  const Schedule& schedule() const { return s_; }
  const AlgorithmGraph& algorithm() const { return algorithm_; }
  const ArchitectureGraph& architecture() const { return architecture_; }
  /// Occupied resources, in name order.
  const std::vector<util::SymbolId>& resources() const { return resources_; }
  /// Items on one resource in (start, end) order; empty when unused.
  std::span<const std::size_t> timeline(util::SymbolId resource) const;
  /// Loads, in row order.
  const std::vector<std::size_t>& reconfigs() const { return reconfigs_; }
  bool is_operator(util::SymbolId r) const { return r < flags_.size() && (flags_[r] & 1) != 0; }
  bool is_region(util::SymbolId r) const { return r < flags_.size() && (flags_[r] & 2) != 0; }
  /// "'label' [start..end ns]".
  std::string span(std::size_t item) const;

  /// Overlap per resource (resources in name order) and PortOverlap: one
  /// max-reach sweep, which pairs each item with the furthest-reaching
  /// earlier one. With A[0,10) B[1,2) C[3,4) it reports (A,B) and (A,C).
  void overlaps(std::vector<Finding>& out) const;
  void port_overlaps(std::vector<Finding>& out) const;
  /// Per edge: Unscheduled, or Precedence then the transfer findings of
  /// a cross-operator edge. Rows with no edge id serve an edge by an
  /// unconsumed (src, dst, bytes) match, one per medium.
  void dependencies(std::vector<Finding>& out) const;
  /// Walks each FPGA region in architecture order, starting from its
  /// `preloaded` module. With none, `infer_preload` takes the first
  /// variant before any load as preloaded instead of reporting
  /// Unconfigured. `constraints` (may be null) enables ForeignModule.
  void residency_walk(const std::map<std::string, std::string>& preloaded, bool infer_preload,
                      const ConstraintSet* constraints, std::vector<Finding>& out) const;
  void data_crossings(std::vector<Finding>& out) const;

  /// validate_schedule's and lint's findings, in validate_schedule's
  /// order: negative durations, overlaps, dependencies, the walk with
  /// inferred preloads, the port. Pairs starting together keep row order.
  std::vector<Finding> structural() const;

  /// Residencies of one resource in time order, its `preloaded` module
  /// (if any) resident from 0.
  std::vector<Residency> residencies(std::string_view resource,
                                     const std::map<std::string, std::string>& preloaded) const;

 private:
  static std::string_view preload(const std::map<std::string, std::string>& preloaded,
                                  std::string_view resource);
  std::size_t compute_of(graph::NodeId n) const {
    return n < compute_of_.size() ? compute_of_[n] : kNoItem;
  }
  std::span<const std::size_t> tagged_chain(graph::EdgeId e) const;

  const Schedule& s_;
  const AlgorithmGraph& algorithm_;
  const ArchitectureGraph& architecture_;
  std::vector<std::vector<std::size_t>> timelines_;  ///< by resource SymbolId
  std::vector<util::SymbolId> resources_;
  std::vector<std::size_t> reconfigs_;
  std::vector<std::size_t> compute_of_;   ///< by algorithm NodeId
  std::vector<std::size_t> transfers_;    ///< tagged transfer rows, by edge then row
  std::vector<std::size_t> edge_offset_;  ///< by EdgeId: its rows in transfers_
  std::vector<std::size_t> untagged_;     ///< transfer rows with no usable edge id
  std::vector<std::uint8_t> flags_;       ///< by resource SymbolId: 1 operator, 2 region
};

}  // namespace pdr::aaa
