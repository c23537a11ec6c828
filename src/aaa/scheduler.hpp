// The adequation's internals: the frozen problem tables an Adequation
// builds once, and the per-run Scheduler whose named stages (ready set,
// place, evaluate, price_transfers, commit, finish) turn them into a
// Schedule. Not part of the public API: aaa/adequation.hpp does not
// include this header. Its one other client is
// bench::schedule_rescan_reference, which drives place() in the
// rescanning order the ready queue replaced.
//
// A run builds its Schedule once, in place: every name it stores is a
// read of the problem's name table (Problem::names, the base of the
// schedule's interner), the ready set copies only its counters, commit()
// writes the winner's rows straight into the schedule's columns, and
// finish() orders them with a radix pass over packed keys
// (Schedule::sort_items).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "aaa/adequation.hpp"
#include "graph/ready.hpp"

namespace pdr::aaa {

/// Everything the heuristic reads that depends only on the problem (the
/// two graphs and the duration table). Built by the Adequation
/// constructor, shared read-only by every run. Index tables are keyed by
/// architecture NodeId (operators, media) or algorithm NodeId.
struct Problem {
  /// Marks, in KindTable::durations, operators a kind cannot execute on.
  static constexpr TimeNs kUnsupported = -1;

  /// One operation kind on every operator. The target lists keep the
  /// architecture's declaration order, which every tie-break relies on.
  struct KindTable {
    std::vector<TimeNs> durations;    ///< by architecture NodeId
    std::vector<NodeId> plain;        ///< feasible targets, regions excluded
    std::vector<NodeId> conditioned;  ///< feasible targets incl. regions
    double mean = 0;                  ///< operator-agnostic mean duration
  };

  /// One alternative of a conditioned vertex, resolved once.
  struct Alternative {
    util::SymbolId variant;  ///< the alternative's name
    util::SymbolId label;    ///< its compute label, "name(variant)"
    const KindTable* kind;   ///< its kind's table
  };

  /// One row of the in-edge CSR: producer, payload and edge id of a
  /// `src -> consumer` data dependency.
  struct InEdgeRow {
    graph::NodeId src;
    Bytes bytes = 0;
    graph::EdgeId e = graph::kNoEdge;
  };

  Problem(const AlgorithmGraph& algorithm, const ArchitectureGraph& architecture,
          const DurationTable& durations);

  /// The table of a kind some operation or alternative of the graph has.
  const KindTable& kind(std::string_view kind) const { return kinds.find(kind)->second; }

  /// Critical-path weight of an operation: the mean duration of its kind
  /// (the worst alternative's, for a conditioned vertex).
  double weight(graph::NodeId n) const;

  /// Versions of the graphs and the table at construction.
  std::uint64_t algorithm_version;
  std::uint64_t architecture_version;
  std::uint64_t durations_version;

  std::size_t algo_cap = 0;  ///< algorithm node capacity
  std::size_t arch_cap = 0;  ///< one past the largest operator/medium id
  std::vector<NodeId> operators;                 ///< declaration order
  std::vector<NodeId> media;                     ///< declaration order
  std::vector<const OperatorNode*> op_ptr;       ///< by architecture NodeId
  std::vector<const MediumNode*> media_ptr;      ///< by architecture NodeId
  std::vector<std::vector<NodeId>> routes;       ///< media in hop order, at from * arch_cap + to
  std::vector<const Operation*> algo_op;         ///< by algorithm NodeId
  std::vector<std::size_t> in_off;               ///< in-edge CSR offsets, node -> rows
  std::vector<InEdgeRow> in_rows;                ///< in-edge CSR rows, edge-id order per node
  /// Every operation and alternative kind; keys view the graph's strings.
  std::unordered_map<std::string_view, KindTable> kinds;
  std::vector<const KindTable*> op_kind;  ///< own kind's table; null for conditioned vertices
  /// The name table every run's schedule continues: "", the operators
  /// and then the media in declaration order (so resource ids are dense
  /// array indices), the operation names, and per conditioned vertex its
  /// alternative names and compute labels. Resources and alternative
  /// names are indexed; operation names and labels are appended
  /// unindexed, as nothing looks them up by text.
  std::shared_ptr<const util::Interner> names;
  std::vector<util::SymbolId> arch_sym;  ///< resource name, by architecture NodeId
  std::vector<util::SymbolId> op_sym;    ///< operation name, by algorithm NodeId
  std::vector<std::uint32_t> alt_first;  ///< a conditioned vertex's first row in alts
  std::vector<Alternative> alts;         ///< every conditioned vertex's, in graph order
  graph::ReadyTracker tracker;           ///< pristine ready set; copies share its CSR
  /// The SynDEx pick order: live operations by critical-path remainder,
  /// highest first, ties on the smaller id.
  std::vector<graph::NodeId> priority_order;
  std::vector<std::uint32_t> priority_rank;  ///< position in priority_order, by algorithm NodeId
};

/// One run of the heuristic over an Adequation's problem. Everything it
/// writes is its own, so any number of Schedulers may run over one
/// Adequation at once.
class Scheduler {
 public:
  /// Starts a run. Throws pdr::Error if a graph or the duration table
  /// changed since the Adequation was built.
  Scheduler(const Adequation& adequation, const AdequationOptions& options);

  const Problem& problem() const { return p_; }

  /// Ready set: places every operation, in priority order.
  void place_ready_set();
  /// Place: chooses the operator for `n` per the mapping strategy and
  /// commits it. Every predecessor of `n` must already be placed.
  void place(graph::NodeId n);
  /// Finish: sorts the items into canonical order and computes the
  /// totals. Ends the run.
  Schedule finish();

 private:
  /// Mutable scheduling state, written only by commit().
  struct State {
    std::vector<TimeNs> operator_free;          ///< by architecture NodeId
    std::vector<TimeNs> medium_free;            ///< by architecture NodeId
    std::vector<util::SymbolId> region_loaded;  ///< by architecture NodeId
    TimeNs port_free = 0;
    std::vector<TimeNs> finish;     ///< by algorithm NodeId
    std::vector<NodeId> placed_on;  ///< algorithm NodeId -> architecture operator
  };

  /// A fully evaluated placement, plain scalars only: evaluate() builds
  /// it against a read-only State, and commit() replays it. One code path
  /// produces every number, so an estimate and the committed schedule
  /// cannot diverge, and choosing between two candidates is a POD swap.
  struct Candidate {
    NodeId target = graph::kNoNode;
    util::SymbolId target_sym = util::kNoSymbol;
    bool needs_reconfig = false;
    TimeNs reconfig_start = 0;
    TimeNs reconfig_end = 0;
    TimeNs reconfig_duration = 0;
    TimeNs exposed_stall = 0;
    TimeNs start = 0;
    TimeNs end = 0;
  };

  /// One in-edge of the operation being placed, gathered once per place()
  /// since every candidate re-prices the same dependencies.
  struct InEdge {
    TimeNs finish;        ///< producer's committed finish time
    NodeId src_w;         ///< operator the producer landed on
    Bytes bytes;
    graph::EdgeId e;
    util::SymbolId psym;  ///< producer's name symbol
  };

  /// The alternative a conditioned vertex executes, as an index into its
  /// alternatives: the selected one, the first when unselected.
  std::size_t resolve(const Operation& op) const;
  /// Feasible operators for `n` under `tbl` (its resolved kind's table).
  const std::vector<NodeId>& candidates(graph::NodeId n, const Operation& op,
                                        const Problem::KindTable& tbl);
  /// The time all of in_buf_'s inputs are available on `w`. With
  /// `record`, also books the media and appends the transfer rows to the
  /// schedule, with `nsym` as their destination.
  TimeNs price_transfers(NodeId w, util::SymbolId nsym, bool record);
  void evaluate(graph::NodeId n, NodeId w, util::SymbolId variant_sym, TimeNs duration,
                Candidate& cand);
  void commit(graph::NodeId n, const Candidate& cand, util::SymbolId variant_sym,
              util::SymbolId label_sym);

  const Problem& p_;
  const std::vector<NodeId>& pinned_;
  const AdequationOptions& options_;
  Schedule schedule_;
  State st_;
  /// Medium reservations of the candidate being priced, generation-stamped
  /// so clearing them between candidates is O(1).
  std::vector<TimeNs> scratch_reserved_;
  std::vector<std::uint32_t> scratch_generation_;
  std::uint32_t generation_ = 0;
  std::vector<InEdge> in_buf_;
  std::vector<NodeId> pinned_buf_;  ///< candidates() result for a pinned operation
  std::size_t round_robin_cursor_ = 0;
  Candidate best_;
  Candidate scratch_;
};

}  // namespace pdr::aaa
