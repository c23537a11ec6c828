// The schedule core: intern-keyed struct-of-arrays storage.
//
// A Schedule is the result of one adequation run — potentially millions
// of scheduled activities. It is stored as parallel columns (one vector
// per field) with every name — resource, variant, module, label,
// transfer endpoints — held as a util::SymbolId into the schedule's
// Interner. A scheduled run's interner continues its problem's name table
// (aaa::Problem::names, a shared base holding the architecture's
// resources first, so resource ids are dense array indices, then the
// operation names and compute labels). Consequences:
//
//  - the scheduler hot path never builds, copies or hashes a std::string:
//    state is SymbolId/NodeId-indexed vectors, and committing a placement
//    appends its rows straight to the columns (push_transfer and
//    friends), naming symbols of the shared table;
//  - finishing a run orders the rows with a stable radix pass over one
//    packed u64 key per row (sort_items);
//  - `resource_busy` and `placement` are SymbolId-indexed vectors, not
//    string-keyed maps;
//  - names are resolved to text only at the rendering boundary:
//    to_string()/gantt()/to_csv(), export_schedule(), the executive
//    generator, lint's schedule rules and pdr::verify all read the ID
//    accessors and call name() when they emit text.
//
// The string-faced API survives as thin resolution shims: ScheduledItem
// is the materialized per-item view (item()/push_item()), kept
// so hand-built schedules in tests and witness reporting keep working —
// exporter output is byte-identical to the pre-interning representation.
//
// Label storage rule: the scheduler never stores transfer/reconfig
// labels — label_sym() == util::kNoSymbol means "derive from the item's
// other columns" ("src->dst" for transfers, "load <module>" for
// reconfigs). Compute labels (operation name, plus "(variant)" for
// conditioned vertices) and any label pushed through push_item() are
// interned verbatim.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/digraph.hpp"
#include "obs/trace.hpp"
#include "util/interner.hpp"
#include "util/units.hpp"

namespace pdr {
class TextWriter;
}

namespace pdr::aaa {

enum class ItemKind : std::uint8_t { Compute, Transfer, Reconfig };

const char* item_kind_name(ItemKind kind);

/// One scheduled activity on one resource — the *materialized* view the
/// string-faced shims trade in. The schedule itself stores columns of
/// ids; this struct exists for hand-built schedules (tests), violation
/// witnesses and other boundary consumers.
struct ScheduledItem {
  ItemKind kind = ItemKind::Compute;
  std::string label;
  std::string resource;  ///< operator name (Compute/Reconfig target region) or medium name
  TimeNs start = 0;
  TimeNs end = 0;

  // Compute items.
  graph::NodeId op = graph::kNoNode;
  std::string variant;  ///< alternative chosen for conditioned vertices

  // Transfer items.
  std::string src;
  std::string dst;
  Bytes bytes = 0;
  graph::EdgeId edge = graph::kNoEdge;  ///< algorithm-graph edge this transfer carries

  // Reconfig items.
  std::string module;       ///< module loaded into `resource` (a region)
  TimeNs exposed_stall = 0; ///< part of this reconfiguration not hidden by prefetch
};

/// Result of one adequation run. Items are sorted by (start, resource
/// name) once the run finalizes.
class Schedule {
 public:
  /// Symbol table: resource/label/variant/module names. A scheduled
  /// run's table continues its problem's shared name table, whose first
  /// symbols are the architecture's operators and media in declaration
  /// order, so resource symbols are dense array indices. Copies of the
  /// schedule share that base.
  util::Interner symbols;

  TimeNs makespan = 0;
  int reconfig_count = 0;
  TimeNs reconfig_total = 0;    ///< summed reconfiguration durations
  TimeNs reconfig_exposed = 0;  ///< summed latency NOT hidden by prefetch

  /// Busy time per resource, indexed by resource SymbolId (filled by the
  /// scheduler's finalize; empty for hand-built schedules).
  std::vector<TimeNs> resource_busy;
  /// Operation -> operator name symbol, indexed by algorithm NodeId;
  /// util::kNoSymbol = not placed.
  std::vector<util::SymbolId> placement;

  // --- ID-based accessors (the hot-path API) -----------------------------
  std::size_t size() const { return kind_.size(); }
  bool empty() const { return kind_.empty(); }
  ItemKind kind(std::size_t i) const { return kind_[i]; }
  TimeNs start(std::size_t i) const { return start_[i]; }
  TimeNs end(std::size_t i) const { return end_[i]; }
  graph::NodeId op(std::size_t i) const { return op_[i]; }
  graph::EdgeId edge(std::size_t i) const { return edge_[i]; }
  Bytes bytes(std::size_t i) const { return bytes_[i]; }
  TimeNs exposed_stall(std::size_t i) const { return exposed_stall_[i]; }
  util::SymbolId resource_sym(std::size_t i) const { return resource_[i]; }
  util::SymbolId label_sym(std::size_t i) const { return label_[i]; }
  util::SymbolId variant_sym(std::size_t i) const { return variant_[i]; }
  util::SymbolId module_sym(std::size_t i) const { return module_[i]; }
  util::SymbolId src_sym(std::size_t i) const { return src_[i]; }
  util::SymbolId dst_sym(std::size_t i) const { return dst_[i]; }

  /// Name behind a symbol ("" for util::kNoSymbol).
  std::string_view name(util::SymbolId sym) const;

  std::string_view resource(std::size_t i) const { return name(resource_[i]); }
  std::string_view variant(std::size_t i) const { return name(variant_[i]); }
  std::string_view module_name(std::size_t i) const { return name(module_[i]); }
  std::string_view src(std::size_t i) const { return name(src_[i]); }
  std::string_view dst(std::size_t i) const { return name(dst_[i]); }

  /// Rendered label: the interned label verbatim when one was stored,
  /// otherwise derived — "src->dst" (transfer), "load <module>"
  /// (reconfig), operation name (compute).
  std::string label(std::size_t i) const;

  /// Placement shims over the SymbolId-indexed vector.
  std::string_view placement_name(graph::NodeId n) const;
  std::size_t placement_count() const;

  // --- mutation (scheduler + shims) --------------------------------------
  util::SymbolId intern(std::string_view s) { return symbols.intern(s); }

  /// Pre-allocates every column for `n` items (capacity only, size
  /// unchanged) so a large schedule grows without repeated reallocation.
  void reserve(std::size_t n);

  std::size_t push_compute(util::SymbolId resource_sym, TimeNs tstart, TimeNs tend,
                           graph::NodeId node, util::SymbolId label_sym,
                           util::SymbolId variant_sym);
  std::size_t push_transfer(util::SymbolId resource_sym, TimeNs tstart, TimeNs tend,
                            util::SymbolId src_sym, util::SymbolId dst_sym, Bytes nbytes,
                            graph::EdgeId e);
  std::size_t push_reconfig(util::SymbolId resource_sym, TimeNs tstart, TimeNs tend,
                            util::SymbolId module_sym, TimeNs stall);

  /// String-faced shim: interns the item's names and appends one row.
  /// The label is stored verbatim (see the label storage rule above).
  void push_item(const ScheduledItem& item);
  /// Materializes row `i` back into the string-faced view.
  ScheduledItem item(std::size_t i) const;

  /// Targeted mutation for schedule-surgery tests (hazard corpora).
  void set_start(std::size_t i, TimeNs t) { start_[i] = t; }
  void set_end(std::size_t i, TimeNs t) { end_[i] = t; }
  void set_resource(std::size_t i, std::string_view r) { resource_[i] = intern(r); }
  void set_variant(std::size_t i, std::string_view v) { variant_[i] = intern(v); }
  void set_module(std::size_t i, std::string_view m) { module_[i] = intern(m); }
  void set_label(std::size_t i, std::string_view l) { label_[i] = intern(l); }
  void set_edge(std::size_t i, graph::EdgeId e) { edge_[i] = e; }
  void erase_item(std::size_t i);
  /// Removes every row whose materialized view satisfies `pred`.
  void erase_items_if(const std::function<bool(const ScheduledItem&)>& pred);

  /// Canonical order: (start, resource name); ties keep emit order.
  /// Starts under 2^35 ns, at most 256 resources and at most 2^21 rows
  /// sort by a stable LSD radix pass over packed keys; anything larger
  /// by a comparison sort of the same key.
  void sort_items();
  /// Recomputes makespan and the resource_busy column from the rows.
  void recompute_totals();

  // --- queries / rendering -----------------------------------------------
  /// Fraction of the makespan `resource` is busy.
  double utilization(std::string_view resource) const;

  /// Lower bound on the steady-state iteration period of the pipelined
  /// executive: the busiest single resource (no schedule can repeat
  /// faster than its bottleneck). The executive player's measured
  /// iteration_period always lies in [period_lower_bound, makespan].
  TimeNs period_lower_bound() const;

  /// Multi-line textual timeline (one line per item).
  std::string to_string() const;

  /// ASCII Gantt chart (one row per resource).
  std::string gantt(int width = 72) const;

  /// CSV export: kind,label,resource,start_ns,end_ns,variant,module — for
  /// external tooling (spreadsheets, Gantt viewers).
  std::string to_csv() const;

 private:
  std::vector<ItemKind> kind_;
  std::vector<TimeNs> start_;
  std::vector<TimeNs> end_;
  std::vector<util::SymbolId> resource_;
  std::vector<graph::NodeId> op_;
  std::vector<util::SymbolId> label_;
  std::vector<util::SymbolId> variant_;
  std::vector<util::SymbolId> src_;
  std::vector<util::SymbolId> dst_;
  std::vector<Bytes> bytes_;
  std::vector<graph::EdgeId> edge_;
  std::vector<util::SymbolId> module_;
  std::vector<TimeNs> exposed_stall_;

  /// Appends label(i) without building a string.
  void append_label(TextWriter& w, std::size_t i) const;
  std::size_t push_row(ItemKind k, util::SymbolId resource_sym, TimeNs tstart, TimeNs tend);
  template <typename Pred>
  void erase_rows(Pred&& keep);
};

/// Replays a schedule into a tracer: one span per item, track = resource,
/// category = "sched_<kind>" ("sched_compute" / "sched_transfer" /
/// "sched_reconfig"), with variant/module/bytes attached as span args.
/// Lets `pdrflow adequation --trace-out` render the Gantt in
/// chrome://tracing / Perfetto alongside simulator tracks.
void export_schedule(const Schedule& schedule, obs::Tracer& tracer);

}  // namespace pdr::aaa
