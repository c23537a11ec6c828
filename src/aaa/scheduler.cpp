#include "aaa/scheduler.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace pdr::aaa {

Problem::Problem(const AlgorithmGraph& algorithm, const ArchitectureGraph& architecture,
                 const DurationTable& durations)
    : algorithm_version(algorithm.version()),
      architecture_version(architecture.version()),
      durations_version(durations.version()),
      algo_cap(algorithm.digraph().node_capacity()),
      operators(architecture.operators()),
      media(architecture.media()),
      tracker(algorithm.digraph()) {
  const auto& g = algorithm.digraph();
  for (NodeId w : operators) arch_cap = std::max<std::size_t>(arch_cap, w + 1);
  for (NodeId m : media) arch_cap = std::max<std::size_t>(arch_cap, m + 1);

  // Operators and media resolved to plain pointers, so per-candidate reads
  // skip the operator/medium discrimination check.
  op_ptr.assign(arch_cap, nullptr);
  for (NodeId w : operators) op_ptr[w] = &architecture.op(w);
  media_ptr.assign(arch_cap, nullptr);
  for (NodeId m : media) media_ptr[m] = &architecture.medium(m);

  // route() runs a BFS per call, and pricing needs a route per in-edge
  // per candidate.
  routes.resize(arch_cap * arch_cap);
  for (NodeId from : operators)
    for (NodeId to : operators)
      if (from != to) routes[from * arch_cap + to] = architecture.route(from, to);

  // Operations resolved to plain pointers via one sequential node scan,
  // so placements skip the bounds/liveness check of operator[].
  algo_op.assign(algo_cap, nullptr);
  g.for_each_live_node([&](graph::NodeId n, const Operation& op) { algo_op[n] = &op; });

  // One table per distinct kind, so a million-node graph pays one
  // duration-table walk per kind, not one map probe per node.
  const auto table_of = [&](std::string_view kind) -> const KindTable* {
    const auto [it, fresh] = kinds.try_emplace(kind);
    KindTable& tbl = it->second;
    if (fresh) {
      const std::string kind_str(kind);
      tbl.durations.assign(arch_cap, kUnsupported);
      for (NodeId w : operators) {
        const OperatorNode& target = *op_ptr[w];
        if (!durations.supports(kind_str, target)) continue;
        tbl.durations[w] = durations.lookup(kind_str, target);
        // Regions host only conditioned vertices (dynamic modules).
        if (target.kind != OperatorKind::FpgaRegion) tbl.plain.push_back(w);
        tbl.conditioned.push_back(w);
      }
      tbl.mean = durations.mean(kind_str);
    }
    return &tbl;
  };
  op_kind.assign(algo_cap, nullptr);
  for (graph::NodeId n = 0; n < algo_cap; ++n) {
    if (algo_op[n] == nullptr) continue;
    const Operation& op = *algo_op[n];
    if (!op.conditioned()) op_kind[n] = table_of(op.kind);
    for (const auto& alt : op.alternatives) table_of(alt.kind);
  }

  // The name table, built once: a run reads every symbol it stores from
  // here. Operation names are unique (the graph validates them), so they
  // and the labels derived from them go in unindexed.
  auto table = std::make_shared<util::Interner>();
  arch_sym.assign(arch_cap, util::kNoSymbol);
  for (NodeId w : operators) arch_sym[w] = table->intern(op_ptr[w]->name);
  for (NodeId m : media) arch_sym[m] = table->intern(media_ptr[m]->name);
  op_sym.assign(algo_cap, util::kNoSymbol);
  for (graph::NodeId n = 0; n < algo_cap; ++n)
    if (algo_op[n] != nullptr) op_sym[n] = table->append(algo_op[n]->name);
  alt_first.assign(algo_cap, 0);
  std::string label;
  for (graph::NodeId n = 0; n < algo_cap; ++n) {
    if (algo_op[n] == nullptr || !algo_op[n]->conditioned()) continue;
    const Operation& op = *algo_op[n];
    alt_first[n] = static_cast<std::uint32_t>(alts.size());
    for (const auto& alt : op.alternatives) {
      const util::SymbolId variant = table->intern(alt.name);
      // An unnamed alternative computes under the plain operation name.
      util::SymbolId label_sym = op_sym[n];
      if (variant != util::kEmptySymbol) {
        label = op.name;
        label += '(';
        label += alt.name;
        label += ')';
        label_sym = table->append(label);
      }
      alts.push_back({variant, label_sym, &kind(alt.kind)});
    }
  }
  names = std::move(table);

  // In-edge CSR from two sequential edge scans: each consumer's rows sit
  // in one contiguous block, in edge-id order (for_each_in_edge's order).
  in_off.assign(algo_cap + 1, 0);
  g.for_each_live_edge([&](graph::EdgeId, graph::NodeId, graph::NodeId to) { ++in_off[to + 1]; });
  for (std::size_t i = 0; i < algo_cap; ++i) in_off[i + 1] += in_off[i];
  in_rows.resize(in_off[algo_cap]);
  std::vector<std::size_t> cursor(in_off.begin(), in_off.end() - 1);
  g.for_each_live_edge([&](graph::EdgeId e, graph::NodeId from, graph::NodeId to) {
    in_rows[cursor[to]++] = {from, g.edge(e).bytes, e};
  });

  const std::vector<double> remainder =
      tracker.critical_path_remainder([this](graph::NodeId n) { return weight(n); });
  for (graph::NodeId n = 0; n < algo_cap; ++n)
    if (algo_op[n] != nullptr) priority_order.push_back(n);
  std::stable_sort(priority_order.begin(), priority_order.end(),
                   [&](graph::NodeId a, graph::NodeId b) { return remainder[a] > remainder[b]; });
  priority_rank.assign(algo_cap, 0);
  for (std::size_t r = 0; r < priority_order.size(); ++r)
    priority_rank[priority_order[r]] = static_cast<std::uint32_t>(r);
}

double Problem::weight(graph::NodeId n) const {
  if (op_kind[n] != nullptr) return op_kind[n]->mean;
  double worst = 0;
  for (const auto& alt : algo_op[n]->alternatives) worst = std::max(worst, kind(alt.kind).mean);
  return worst;
}

Scheduler::Scheduler(const Adequation& adequation, const AdequationOptions& options)
    : p_(*adequation.problem_), pinned_(adequation.pinned_), options_(options) {
  PDR_CHECK(adequation.algorithm().version() == p_.algorithm_version &&
                adequation.architecture().version() == p_.architecture_version,
            "Adequation::run",
            "a graph was edited after the Adequation was built; build a new one");
  PDR_CHECK(adequation.durations_.version() == p_.durations_version, "Adequation::run",
            "the duration table was edited after the Adequation was built; build a new one");

  // The schedule's names continue the problem's table: resource symbols
  // are dense array indices, so resource_busy and the renderers index
  // straight into vectors, and no run copies a name.
  schedule_.symbols = util::Interner(p_.names);
  schedule_.placement.assign(p_.algo_cap, util::kNoSymbol);
  // One compute per operation plus its transfers: reserving 2x the node
  // count absorbs the common case without repeated 13-column regrowth.
  schedule_.reserve(p_.algo_cap * 2);

  st_.operator_free.assign(p_.arch_cap, 0);
  st_.medium_free.assign(p_.arch_cap, 0);
  st_.region_loaded.assign(p_.arch_cap, util::kEmptySymbol);
  st_.finish.assign(p_.algo_cap, 0);
  st_.placed_on.assign(p_.algo_cap, graph::kNoNode);
  for (NodeId w : p_.operators) {
    if (p_.op_ptr[w]->kind != OperatorKind::FpgaRegion) continue;
    const auto it = options_.preloaded.find(p_.op_ptr[w]->name);
    if (it != options_.preloaded.end()) st_.region_loaded[w] = schedule_.intern(it->second);
  }
  scratch_reserved_.assign(p_.arch_cap, 0);
  scratch_generation_.assign(p_.arch_cap, 0);
}

std::size_t Scheduler::resolve(const Operation& op) const {
  const auto sel = options_.selection.find(op.name);
  if (sel == options_.selection.end()) return 0;
  for (std::size_t k = 0; k < op.alternatives.size(); ++k)
    if (op.alternatives[k].name == sel->second) return k;
  throw Error("Adequation: selection '" + sel->second + "' is not an alternative of '" + op.name +
              "'");
}

// Unpinned operations share the per-kind feasibility lists; a pinned one
// filters into a pooled buffer. Feasibility is checked against the kind of
// the *resolved* variant, so a selected alternative the target cannot
// execute is filtered out here instead of throwing mid-schedule.
const std::vector<NodeId>& Scheduler::candidates(graph::NodeId n, const Operation& op,
                                                 const Problem::KindTable& tbl) {
  const NodeId pin = pinned_[n];
  if (pin == graph::kNoNode) {
    const auto& list = op.conditioned() ? tbl.conditioned : tbl.plain;
    PDR_CHECK(!list.empty(), "Adequation", "operation '" + op.name + "' has no feasible operator");
    return list;
  }
  pinned_buf_.clear();
  // Regions host only conditioned vertices (dynamic modules).
  if ((p_.op_ptr[pin]->kind != OperatorKind::FpgaRegion || op.conditioned()) &&
      tbl.durations[pin] != Problem::kUnsupported)
    pinned_buf_.push_back(pin);
  PDR_CHECK(!pinned_buf_.empty(), "Adequation",
            "operation '" + op.name + "' has no feasible operator (pinned to '" +
                p_.op_ptr[pin]->name + "')");
  return pinned_buf_;
}

// Pricing runs once per candidate and recording once, for the winner at
// commit, so rejected candidates never touch the schedule. State is
// unchanged between the runs, so the recorded rows are exactly the priced
// ones. Media this operation's own transfers occupy are reserved in the
// scratch view, so two in-edges sharing a medium serialize in the estimate
// exactly as they will in the committed schedule.
TimeNs Scheduler::price_transfers(NodeId w, util::SymbolId nsym, bool record) {
  ++generation_;
  TimeNs data_avail = 0;
  for (const InEdge& in : in_buf_) {
    TimeNs t = in.finish;
    if (in.src_w != w && in.bytes > 0) {
      for (NodeId m : p_.routes[in.src_w * p_.arch_cap + w]) {
        const TimeNs free =
            scratch_generation_[m] == generation_ ? scratch_reserved_[m] : st_.medium_free[m];
        const TimeNs tstart = std::max(t, free);
        const TimeNs tend = tstart + p_.media_ptr[m]->transfer_time(in.bytes);
        scratch_generation_[m] = generation_;
        scratch_reserved_[m] = tend;
        if (record) {
          // Booking the medium now is safe: the rest of this pass reads
          // it through the scratch slot just stamped. The label is
          // derived at render time, so the row carries none.
          st_.medium_free[m] = tend;
          schedule_.push_transfer(p_.arch_sym[m], tstart, tend, in.psym, nsym, in.bytes, in.e);
        }
        t = tend;
      }
    }
    data_avail = std::max(data_avail, t);
  }
  return data_avail;
}

void Scheduler::evaluate(graph::NodeId n, NodeId w, util::SymbolId variant_sym, TimeNs duration,
                         Candidate& cand) {
  const OperatorNode& target = *p_.op_ptr[w];
  cand = Candidate{};
  cand.target = w;
  cand.target_sym = p_.arch_sym[w];
  const TimeNs data_avail = price_transfers(w, util::kNoSymbol, /*record=*/false);

  // Reconfiguration, when targeting a region holding a different module.
  const TimeNs free_before = st_.operator_free[w];
  TimeNs region_ready = free_before;
  if (target.kind == OperatorKind::FpgaRegion && variant_sym != util::kEmptySymbol &&
      st_.region_loaded[w] != variant_sym) {
    cand.needs_reconfig = true;
    cand.reconfig_duration =
        options_.reconfig_cost
            ? options_.reconfig_cost(target.name, std::string(p_.names->name(variant_sym)))
            : kPaperReconfigCost;
    const TimeNs earliest = std::max(st_.port_free, free_before);
    cand.reconfig_start = options_.prefetch ? earliest : std::max(earliest, data_avail);
    cand.reconfig_end = cand.reconfig_start + cand.reconfig_duration;
    region_ready = cand.reconfig_end;
    // Exposure: how much later the compute starts because of this
    // reconfiguration, vs. a region already holding the module.
    const TimeNs would_start = std::max(data_avail, free_before);
    const TimeNs with_reconfig = std::max(data_avail, cand.reconfig_end);
    cand.exposed_stall = std::max<TimeNs>(0, with_reconfig - would_start);
  }

  cand.start = std::max(data_avail, region_ready);
  cand.end = cand.start + duration;
  if (options_.eval_log != nullptr) options_.eval_log->push_back({n, target.name, cand.end, false});
}

// No number is recomputed and no string is copied here: every row goes
// straight into the schedule's columns, naming symbols of the problem's
// table.
void Scheduler::commit(graph::NodeId n, const Candidate& cand, util::SymbolId variant_sym,
                       util::SymbolId label_sym) {
  // The winner's transfer rows: a second pricing run over the same, still
  // unbooked, state. Sources have no in-edges to record.
  if (!in_buf_.empty()) price_transfers(cand.target, p_.op_sym[n], /*record=*/true);
  if (cand.needs_reconfig) {
    st_.port_free = cand.reconfig_end;
    st_.region_loaded[cand.target] = variant_sym;
    schedule_.push_reconfig(cand.target_sym, cand.reconfig_start, cand.reconfig_end, variant_sym,
                            cand.exposed_stall);
    schedule_.reconfig_exposed += cand.exposed_stall;
    schedule_.reconfig_total += cand.reconfig_duration;
    ++schedule_.reconfig_count;
  }
  st_.operator_free[cand.target] = cand.end;
  st_.finish[n] = cand.end;
  st_.placed_on[n] = cand.target;
  schedule_.push_compute(cand.target_sym, cand.start, cand.end, n, label_sym, variant_sym);
  schedule_.placement[n] = cand.target_sym;
  if (options_.eval_log != nullptr)
    options_.eval_log->push_back({n, p_.op_ptr[cand.target]->name, cand.end, true});
}

void Scheduler::place(graph::NodeId n) {
  const Operation& op = *p_.algo_op[n];
  // A plain operation computes under its own name and kind; a conditioned
  // vertex under its resolved alternative's.
  const Problem::Alternative* alt =
      op.conditioned() ? &p_.alts[p_.alt_first[n] + resolve(op)] : nullptr;
  const util::SymbolId variant_sym = alt != nullptr ? alt->variant : util::kEmptySymbol;
  const util::SymbolId label_sym = alt != nullptr ? alt->label : p_.op_sym[n];
  const Problem::KindTable& tbl = alt != nullptr ? *alt->kind : *p_.op_kind[n];
  const std::vector<TimeNs>& durations = tbl.durations;
  const auto& cands = candidates(n, op, tbl);
  in_buf_.clear();
  for (std::size_t i = p_.in_off[n]; i < p_.in_off[n + 1]; ++i) {
    const Problem::InEdgeRow& r = p_.in_rows[i];
    in_buf_.push_back({st_.finish[r.src], st_.placed_on[r.src], r.bytes, r.e, p_.op_sym[r.src]});
  }
  if (options_.strategy != MappingStrategy::SynDExList) {
    const NodeId w = options_.strategy == MappingStrategy::RoundRobin
                         ? cands[round_robin_cursor_++ % cands.size()]
                         : cands.front();
    evaluate(n, w, variant_sym, durations[w], best_);
    commit(n, best_, variant_sym, label_sym);
    return;
  }
  // Lower-bound prune: a candidate cannot finish before its operator frees
  // up and its inputs are all produced, and transfers/reconfig only add
  // delay on top — so once a best exists, any candidate whose bound misses
  // `best_.end` loses (selection needs a strict improvement) and its
  // evaluation is skipped without changing the outcome. Disabled when an
  // eval log is attached so the log stays complete.
  TimeNs max_pred_finish = 0;
  for (const InEdge& in : in_buf_) max_pred_finish = std::max(max_pred_finish, in.finish);
  const bool prune = options_.eval_log == nullptr;
  bool have = false;
  for (NodeId w : cands) {
    if (have && prune && std::max(st_.operator_free[w], max_pred_finish) + durations[w] >= best_.end)
      continue;
    evaluate(n, w, variant_sym, durations[w], scratch_);
    if (!have || scratch_.end < best_.end) {
      std::swap(best_, scratch_);
      have = true;
    }
  }
  commit(n, best_, variant_sym, label_sym);
}

void Scheduler::place_ready_set() {
  // Indegree counters surface operations the instant their last
  // predecessor commits; a rank queue hands them out by critical-path
  // remainder, ties on node id (SynDEx: the problem's priority ranks), or
  // by node id alone (the naive baselines).
  const bool by_priority = options_.strategy == MappingStrategy::SynDExList;
  const auto rank_of = [&](graph::NodeId n) { return by_priority ? p_.priority_rank[n] : n; };
  graph::RankQueue ready(p_.algo_cap);
  graph::ReadyTracker tracker(p_.tracker);
  for (graph::NodeId n : tracker.initial()) ready.push(rank_of(n));
  std::vector<graph::NodeId> newly_ready;
  while (!ready.empty()) {
    const std::uint32_t rank = ready.pop();
    const graph::NodeId n = by_priority ? p_.priority_order[rank] : rank;
    place(n);
    newly_ready.clear();
    tracker.complete(n, newly_ready);
    for (graph::NodeId s : newly_ready) ready.push(rank_of(s));
  }
  PDR_CHECK(tracker.done(), "Adequation", "no ready operation (cycle?)");
}

Schedule Scheduler::finish() {
  schedule_.sort_items();
  schedule_.recompute_totals();
  return std::move(schedule_);
}

}  // namespace pdr::aaa
