#include "aaa/adequation.hpp"

#include <algorithm>
#include <queue>
#include <string_view>
#include <unordered_map>

#include "aaa/schedule_analysis.hpp"
#include "graph/ready.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdr::aaa {

using namespace pdr::literals;

const char* mapping_strategy_name(MappingStrategy strategy) {
  switch (strategy) {
    case MappingStrategy::SynDExList: return "syndex_list";
    case MappingStrategy::RoundRobin: return "round_robin";
    case MappingStrategy::FirstFeasible: return "first_feasible";
  }
  return "?";
}

void validate_schedule(const Schedule& schedule, const AlgorithmGraph& algorithm,
                       const ArchitectureGraph& architecture) {
  validate_schedule(ScheduleAnalysis(schedule, algorithm, architecture));
}

void validate_schedule(const ScheduleAnalysis& analysis) {
  const std::vector<Finding> findings = analysis.structural();
  if (findings.empty()) return;
  const Schedule& schedule = analysis.schedule();
  const AlgorithmGraph& algorithm = analysis.algorithm();
  const ArchitectureGraph& architecture = analysis.architecture();
  const Finding& f = findings.front();
  const auto& g = algorithm.digraph();
  const std::string item = f.item == kNoItem ? "" : schedule.label(f.item);
  const char* producer = f.edge == graph::kNoEdge ? "" : g[g.edge_from(f.edge)].name.c_str();
  const char* consumer = f.edge == graph::kNoEdge ? "" : g[g.edge_to(f.edge)].name.c_str();
  std::string message;
  switch (f.kind) {
    case FindingKind::NegativeDuration:
      message = strprintf("item '%s' ends before it starts", item.c_str());
      break;
    case FindingKind::Overlap:
      message = strprintf("items '%s' and '%s' overlap on resource '%s'",
                          schedule.label(f.first).c_str(), item.c_str(),
                          std::string(schedule.resource(f.item)).c_str());
      break;
    case FindingKind::Unscheduled: message = "an operation was never scheduled"; break;
    case FindingKind::Precedence:
      message = strprintf("operation '%s' starts before its input '%s' finishes", consumer, producer);
      break;
    case FindingKind::MissingTransfer:
      message = strprintf("missing transfer for dependency '%s' -> '%s'", producer, consumer);
      break;
    case FindingKind::WrongPayload:
      message = strprintf("transfer '%s' carries the wrong payload for its edge", item.c_str());
      break;
    case FindingKind::TransferWindow:
      message = strprintf("transfer '%s' not between producer and consumer", item.c_str());
      break;
    case FindingKind::WrongModule: {
      const char* region = architecture.op(f.node).name.c_str();
      message = f.first == kNoItem
                    ? strprintf("region '%s' computes two variants with no reconfiguration between",
                                region)
                    : strprintf("region '%s' computes variant '%s' while module '%s' is loaded",
                                region, std::string(schedule.variant(f.item)).c_str(),
                                std::string(f.module).c_str());
      break;
    }
    case FindingKind::PortOverlap:
      message = "two reconfigurations overlap on the configuration port";
      break;
    default: break;  // not structural
  }
  raise("validate_schedule", message);
}

Adequation::Adequation(const AlgorithmGraph& algorithm, const ArchitectureGraph& architecture,
                       const DurationTable& durations)
    : algorithm_(algorithm), architecture_(architecture), durations_(durations) {
  reconfig_cost_ = [](const std::string&, const std::string&) { return 4_ms; };
}

void Adequation::set_reconfig_cost(ReconfigCost cost) { reconfig_cost_ = std::move(cost); }

void Adequation::pin(const std::string& op_name, const std::string& operator_name) {
  algorithm_.by_name(op_name);        // throws if unknown
  architecture_.by_name(operator_name);
  pins_[op_name] = operator_name;
}

void Adequation::apply_constraints(const ConstraintSet& constraints) {
  const auto& g = algorithm_.digraph();
  for (graph::NodeId n : g.node_ids()) {
    const Operation& op = g[n];
    if (!op.conditioned()) continue;
    std::string region;
    for (const auto& alt : op.alternatives) {
      const ModuleConstraint* m = constraints.find_module(alt.name);
      if (m == nullptr) continue;
      PDR_CHECK(region.empty() || region == m->region, "Adequation::apply_constraints",
                "alternatives of '" + op.name + "' are declared in two regions");
      region = m->region;
    }
    if (region.empty()) continue;
    // Pin to the architecture operator representing that region.
    for (NodeId w : architecture_.operators_of_kind(OperatorKind::FpgaRegion)) {
      if (architecture_.op(w).region == region) {
        pins_[op.name] = architecture_.op(w).name;
        break;
      }
    }
  }
}

namespace {

/// Mutable scheduling state: written only by commit(). Everything is
/// index-keyed — architecture NodeId for operators/media/regions,
/// algorithm NodeId for finish/placement, SymbolId for loaded modules —
/// resolved once per run instead of the string-keyed maps the hot path
/// used to hash on every access.
struct State {
  std::vector<TimeNs> operator_free;            ///< by architecture NodeId
  std::vector<TimeNs> medium_free;              ///< by architecture NodeId
  std::vector<util::SymbolId> region_loaded;    ///< by architecture NodeId
  TimeNs port_free = 0;
  std::vector<TimeNs> finish;    ///< by algorithm NodeId
  std::vector<NodeId> placed_on; ///< algorithm NodeId -> architecture operator node
};

/// A fully evaluated placement plan: plain-old-data scalars plus a row
/// range [plan_begin, plan_end) into the run's shared TransferPlan arena.
/// evaluate() builds it against a read-only State — reserving shared
/// media in a local scratch view across the operation's own in-edges —
/// and commit() splices the range into the schedule verbatim. One code
/// path produces all the numbers, so a non-commit estimate and the
/// committed schedule cannot diverge; and since the plan rows live in the
/// arena, selecting between candidates is a POD swap, never a copy of
/// per-item strings.
struct Candidate {
  NodeId target = graph::kNoNode;
  util::SymbolId target_sym = util::kNoSymbol;
  TimeNs data_avail = 0;
  bool needs_reconfig = false;
  TimeNs reconfig_start = 0;
  TimeNs reconfig_end = 0;
  TimeNs reconfig_duration = 0;
  TimeNs exposed_stall = 0;
  TimeNs start = 0;
  TimeNs end = 0;
  std::size_t plan_begin = 0;  ///< first TransferPlan row of this plan
  std::size_t plan_end = 0;    ///< one past the last row
};

}  // namespace

Schedule Adequation::run(const AdequationOptions& options) const {
  algorithm_.validate();
  architecture_.validate();

  const auto& g = algorithm_.digraph();

  // Invalidate the cross-run scaffolding cache against the version
  // counters. Everything in it restates the algorithm graph (the
  // priorities additionally bake in durations), so matching versions mean
  // the cached structures are exactly what this run would rebuild.
  if (cache_.algo_version != algorithm_.version()) {
    cache_.algo_version = algorithm_.version();
    cache_.tracker.reset();
    cache_.in_off.clear();
    cache_.in_rows.clear();
    cache_.has_remainder = false;
  }
  if (cache_.durations_version != durations_.version()) {
    cache_.durations_version = durations_.version();
    cache_.has_remainder = false;
  }

  // --- per-run index tables, resolved once --------------------------------
  const std::size_t algo_cap = g.node_capacity();
  const std::vector<NodeId> all_operators = architecture_.operators();
  const std::vector<NodeId> all_media = architecture_.media();
  std::size_t arch_cap = 0;
  for (NodeId w : all_operators) arch_cap = std::max<std::size_t>(arch_cap, w + 1);
  for (NodeId m : all_media) arch_cap = std::max<std::size_t>(arch_cap, m + 1);

  // Seed the schedule's interner with the architecture's resources in
  // declaration order: resource symbols become dense array indices, so
  // resource_busy and the renderers index straight into vectors.
  Schedule schedule;
  std::vector<util::SymbolId> arch_sym(arch_cap, util::kNoSymbol);
  for (NodeId w : all_operators) arch_sym[w] = schedule.intern(architecture_.op(w).name);
  for (NodeId m : all_media) arch_sym[m] = schedule.intern(architecture_.medium(m).name);
  schedule.placement.assign(algo_cap, util::kNoSymbol);
  // One compute per operation plus its transfers: reserving 2x the node
  // count absorbs the common case without repeated 13-column regrowth.
  schedule.reserve(algo_cap * 2);

  // Operation-name symbols, appended on first use (a committed
  // producer's symbol is already resolved by the time a consumer's
  // transfers name it). append() skips the interner's hash index: the
  // graph validates operation names as duplicate-free and nothing looks
  // them up by text, so indexing a million unique labels would be pure
  // rehash cost.
  std::vector<util::SymbolId> algo_sym(algo_cap, util::kNoSymbol);
  const auto op_sym = [&](graph::NodeId x) {
    util::SymbolId& sym = algo_sym[x];
    if (sym == util::kNoSymbol) sym = schedule.symbols.append(g[x].name);
    return sym;
  };
  // Same, for call sites that already hold the operation — skips the
  // bounds-checked graph access on the append path.
  const auto op_sym_known = [&](graph::NodeId x, const Operation& op) {
    util::SymbolId& sym = algo_sym[x];
    if (sym == util::kNoSymbol) sym = schedule.symbols.append(op.name);
    return sym;
  };

  State st;
  st.operator_free.assign(arch_cap, 0);
  st.medium_free.assign(arch_cap, 0);
  st.region_loaded.assign(arch_cap, util::kEmptySymbol);
  st.finish.assign(algo_cap, 0);
  st.placed_on.assign(algo_cap, graph::kNoNode);
  for (NodeId w : all_operators) {
    if (architecture_.op(w).kind == OperatorKind::FpgaRegion) {
      const auto it = options.preloaded.find(architecture_.op(w).name);
      if (it != options.preloaded.end()) st.region_loaded[w] = schedule.intern(it->second);
    }
  }

  // Pins resolved to ids once (names were validated when the pin was set).
  std::vector<NodeId> pinned(algo_cap, graph::kNoNode);
  for (const auto& [op_name, operator_name] : pins_)
    pinned[algorithm_.by_name(op_name)] = architecture_.by_name(operator_name);

  // Media routes between operator pairs, memoized: route() re-runs a BFS
  // per call, and evaluate() needs a route per in-edge per candidate.
  std::vector<std::vector<NodeId>> route_cache(arch_cap * arch_cap);
  std::vector<char> route_known(arch_cap * arch_cap, 0);
  const auto route_between = [&](NodeId from, NodeId to) -> const std::vector<NodeId>& {
    const std::size_t slot = from * arch_cap + to;
    if (!route_known[slot]) {
      route_cache[slot] = architecture_.route(from, to);
      route_known[slot] = 1;
    }
    return route_cache[slot];
  };

  // Operator nodes resolved to plain pointers once, so per-candidate
  // reads skip the is-operator discrimination check.
  std::vector<const OperatorNode*> op_ptr(arch_cap, nullptr);
  for (NodeId w : all_operators) op_ptr[w] = &architecture_.op(w);

  // Algorithm operations resolved to plain pointers once via a sequential
  // node scan, so the per-placement lookup skips the bounds/liveness check
  // a million operator[] calls would repeat.
  std::vector<const Operation*> algo_op(algo_cap, nullptr);
  g.for_each_live_node([&](graph::NodeId an, const Operation& aop) { algo_op[an] = &aop; });

  // Per-kind tables, built once per distinct kind: durations on every
  // operator (kUnsupported marks operators the kind cannot execute on)
  // and the feasible-operator lists for unpinned operations. The lists
  // keep all_operators' declaration order, so evaluation order — and
  // therefore every tie-break — is exactly what the per-node filtering
  // loop produced. Keys are views into the graph's stable kind strings.
  constexpr TimeNs kUnsupported = -1;
  struct KindTable {
    std::vector<TimeNs> durations;
    std::vector<NodeId> plain;        ///< feasible targets, regions excluded
    std::vector<NodeId> conditioned;  ///< feasible targets incl. regions
    double mean = 0;                  ///< operator-agnostic mean duration
  };
  // Consecutive operations overwhelmingly share a kind, so a one-entry
  // memo in front of the map turns the per-placement lookup into a short
  // string compare. Map values are node-stable, so the cached pointer
  // survives later insertions.
  std::unordered_map<std::string_view, KindTable> kind_cache;
  std::string_view last_kind;
  const KindTable* last_tbl = nullptr;
  const auto kind_table = [&](std::string_view kind) -> const KindTable& {
    if (last_tbl != nullptr && kind == last_kind) return *last_tbl;
    const auto it = kind_cache.find(kind);
    if (it != kind_cache.end()) {
      last_kind = kind;
      last_tbl = &it->second;
      return it->second;
    }
    const std::string kind_str(kind);
    KindTable tbl;
    tbl.durations.assign(arch_cap, kUnsupported);
    for (NodeId w : all_operators) {
      const OperatorNode& target = *op_ptr[w];
      if (!durations_.supports(kind_str, target)) continue;
      tbl.durations[w] = durations_.lookup(kind_str, target);
      // Regions host only conditioned vertices (dynamic modules).
      if (target.kind != OperatorKind::FpgaRegion) tbl.plain.push_back(w);
      tbl.conditioned.push_back(w);
    }
    tbl.mean = durations_.mean(kind_str);
    const KindTable& slot = kind_cache.emplace(kind, std::move(tbl)).first->second;
    last_kind = kind;
    last_tbl = &slot;
    return slot;
  };

  // Critical-path priority weight: operator-agnostic mean duration of the
  // kind (worst alternative for conditioned vertices). Served from the
  // kind tables, so a million-node graph pays one duration-table walk per
  // distinct kind, not one map probe per node.
  const auto op_weight = [&](graph::NodeId n) {
    const Operation& op = *algo_op[n];
    if (!op.conditioned()) return kind_table(op.kind).mean;
    double worst = 0;
    for (const auto& alt : op.alternatives) worst = std::max(worst, kind_table(alt.kind).mean);
    return worst;
  };

  // Scratch medium reservations for evaluate(), generation-stamped so
  // clearing between evaluations is O(1) instead of allocating a map.
  std::vector<TimeNs> scratch_reserved(arch_cap, 0);
  std::vector<std::uint32_t> scratch_generation(arch_cap, 0);
  std::uint32_t generation = 0;

  // Media resolved to plain pointers once, so the transfer inner loop
  // skips the operator/medium discrimination check per hop.
  std::vector<const MediumNode*> media_ptr(arch_cap, nullptr);
  for (NodeId m : all_media) media_ptr[m] = &architecture_.medium(m);

  // In-edge CSR over the whole graph (cached across runs), built from two
  // sequential edge scans: each consumer's dependency rows sit in one
  // contiguous block, so place() never chases a per-node edge list. Row
  // order within a block is edge-id order — the same order
  // for_each_in_edge produces.
  if (cache_.in_off.empty()) {
    cache_.in_off.assign(algo_cap + 1, 0);
    g.for_each_live_edge(
        [&](graph::EdgeId, graph::NodeId, graph::NodeId to) { ++cache_.in_off[to + 1]; });
    for (std::size_t i = 0; i < algo_cap; ++i) cache_.in_off[i + 1] += cache_.in_off[i];
    cache_.in_rows.resize(cache_.in_off[algo_cap]);
    std::vector<std::size_t> cursor(cache_.in_off.begin(), cache_.in_off.end() - 1);
    g.for_each_live_edge([&](graph::EdgeId e, graph::NodeId from, graph::NodeId to) {
      cache_.in_rows[cursor[to]++] = {from, g.edge(e).bytes, e};
    });
  }
  const std::vector<std::size_t>& in_off = cache_.in_off;
  const std::vector<InEdgeRow>& in_rows = cache_.in_rows;

  // The operation's in-edges, gathered once per placement round: every
  // candidate operator re-prices the same dependencies, so the
  // predecessor state loads and symbol resolution are hoisted out of
  // evaluate() into place().
  struct InEdge {
    TimeNs finish;         ///< producer's committed finish time
    NodeId src_w;          ///< operator the producer landed on
    Bytes bytes;
    graph::EdgeId e;
    util::SymbolId psym;   ///< producer's (already resolved) name symbol
  };
  std::vector<InEdge> in_buf;

  // The per-run plan arena all candidates append into; cleared once per
  // pick. Rejected candidates simply abandon their rows.
  TransferPlan plan;

  // Resolves which alternative/kind a vertex executes: the selected
  // alternative for conditioned vertices (first one when unselected), the
  // operation's own kind otherwise. Resolved once per use so feasibility
  // and evaluation always agree on the kind.
  // Views into the operation's own strings — no per-placement copies.
  auto resolve = [&](const Operation& op) -> std::pair<std::string_view, std::string_view> {
    if (!op.conditioned()) return {{}, op.kind};
    const auto sel = options.selection.find(op.name);
    if (sel == options.selection.end())
      return {op.alternatives.front().name, op.alternatives.front().kind};
    for (const auto& a : op.alternatives)
      if (a.name == sel->second) return {a.name, a.kind};
    throw Error("Adequation: selection '" + sel->second + "' is not an alternative of '" +
                op.name + "'");
  };

  // Prices this operation's incoming transfers (pre-gathered into in_buf
  // by place(), in edge order) onto candidate `w`: returns the time all
  // inputs are available on `w`. Rows land in the plan arena only when
  // `record` is set — pricing runs once per candidate, recording once for
  // the winner at commit, so the 4-5 rejected candidates per operation
  // never touch the arena. `st` is unchanged between the two runs, so the
  // recorded rows are exactly the priced ones.
  const auto price_transfers = [&](NodeId w, util::SymbolId nsym, bool record) -> TimeNs {
    ++generation;
    TimeNs data_avail = 0;
    for (const InEdge& in : in_buf) {
      TimeNs t = in.finish;
      if (in.src_w != w && in.bytes > 0) {
        for (NodeId m : route_between(in.src_w, w)) {
          const TimeNs free =
              scratch_generation[m] == generation ? scratch_reserved[m] : st.medium_free[m];
          const TimeNs tstart = std::max(t, free);
          const TimeNs tend = tstart + media_ptr[m]->transfer_time(in.bytes);
          scratch_generation[m] = generation;
          scratch_reserved[m] = tend;
          // label derived at render time — plans never carry one
          if (record) plan.push(tstart, tend, arch_sym[m], m, in.psym, nsym, in.bytes, in.e);
          t = tend;
        }
      }
      data_avail = std::max(data_avail, t);
    }
    return data_avail;
  };

  // Evaluates placing `n` on operator `w` against `st`, without mutating
  // it, into the pooled `cand`. Media this operation's own transfers
  // occupy are reserved in a scratch view, so two in-edges sharing a
  // medium serialize in the estimate exactly as they will in the committed
  // schedule. `duration` is the precomputed lookup of the resolved kind on
  // `w`; `nsym`/`variant`/`variant_sym` are resolved once per pick.
  auto evaluate = [&](graph::NodeId n, NodeId w, util::SymbolId nsym, std::string_view variant,
                      util::SymbolId variant_sym, TimeNs duration, Candidate& cand) {
    const OperatorNode& target = *op_ptr[w];
    cand = Candidate{};
    cand.target = w;
    cand.target_sym = arch_sym[w];
    const TimeNs data_avail = price_transfers(w, nsym, /*record=*/false);
    cand.data_avail = data_avail;

    // Reconfiguration, when targeting a region holding a different module.
    const TimeNs free_before = st.operator_free[w];
    TimeNs region_ready = free_before;
    if (target.kind == OperatorKind::FpgaRegion && variant_sym != util::kEmptySymbol &&
        st.region_loaded[w] != variant_sym) {
      cand.needs_reconfig = true;
      cand.reconfig_duration = reconfig_cost_(target.name, std::string(variant));
      const TimeNs earliest = std::max(st.port_free, free_before);
      cand.reconfig_start = options.prefetch ? earliest : std::max(earliest, data_avail);
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
    if (options.eval_log != nullptr)
      options.eval_log->push_back({n, target.name, cand.end, false});
  };

  // Applies a candidate: splices its plan rows into the schedule and
  // replays its state writes into `st`. No number is recomputed and no
  // string is copied here — the plan's symbol columns move wholesale.
  auto commit = [&](graph::NodeId n, const Operation& op, Candidate& cand,
                    std::string_view variant, util::SymbolId variant_sym) {
    // Record the winner's transfer rows: a second pricing run over the
    // same (still unmutated) state, this time appending to the arena.
    // Sources have no in-edges and same-operator dependencies price no
    // hops, so the arena and the splice call are skipped when there is
    // nothing to record.
    cand.plan_begin = 0;
    cand.plan_end = 0;
    if (!in_buf.empty()) {
      plan.clear();
      price_transfers(cand.target, op_sym_known(n, op), /*record=*/true);
      cand.plan_end = plan.size();
    }
    for (std::size_t r = cand.plan_begin; r < cand.plan_end; ++r) {
      // per medium, transfers are planned in time order
      st.medium_free[plan.medium[r]] = plan.end[r];
    }
    if (cand.plan_end != 0) schedule.splice_transfers(plan, cand.plan_begin, cand.plan_end);
    if (cand.needs_reconfig) {
      st.port_free = cand.reconfig_end;
      st.region_loaded[cand.target] = variant_sym;
      schedule.push_reconfig(cand.target_sym, cand.reconfig_start, cand.reconfig_end, variant_sym,
                             cand.exposed_stall);
      schedule.reconfig_exposed += cand.exposed_stall;
      schedule.reconfig_total += cand.reconfig_duration;
      ++schedule.reconfig_count;
    }
    st.operator_free[cand.target] = cand.end;
    st.finish[n] = cand.end;
    st.placed_on[n] = cand.target;
    // An unconditioned compute's label is exactly the operation name (one
    // shared symbol); conditioned vertices render "name(variant)". Each
    // operation commits exactly once and operation names are unique, so
    // composite labels are fresh strings — appended index-free like the
    // plain labels.
    util::SymbolId label_sym = op_sym(n);
    if (variant_sym != util::kEmptySymbol) {
      std::string composite;
      composite.reserve(op.name.size() + variant.size() + 2);
      composite += op.name;
      composite += '(';
      composite += variant;
      composite += ')';
      label_sym = schedule.symbols.append(composite);
    }
    schedule.push_compute(cand.target_sym, cand.start, cand.end, n, label_sym, variant_sym);
    schedule.placement[n] = cand.target_sym;
    if (options.eval_log != nullptr)
      options.eval_log->push_back({n, architecture_.op(cand.target).name, cand.end, true});
  };

  // Candidate operators for an operation. Unpinned operations share the
  // per-kind feasibility lists; a pinned one filters into a pooled
  // buffer exactly as the old per-node loop did. Feasibility is checked
  // against the kind of the *resolved* variant, so a selected
  // alternative the target cannot execute is filtered out here instead
  // of throwing from the duration lookup mid-schedule.
  std::vector<NodeId> cand_buf;
  auto candidates = [&](graph::NodeId n, const Operation& op,
                        const KindTable& tbl) -> const std::vector<NodeId>& {
    const NodeId pin = pinned[n];
    if (pin == graph::kNoNode) {
      const auto& list = op.conditioned() ? tbl.conditioned : tbl.plain;
      PDR_CHECK(!list.empty(), "Adequation",
                "operation '" + op.name + "' has no feasible operator");
      return list;
    }
    cand_buf.clear();
    // Regions host only conditioned vertices (dynamic modules).
    if ((op_ptr[pin]->kind != OperatorKind::FpgaRegion || op.conditioned()) &&
        tbl.durations[pin] != kUnsupported)
      cand_buf.push_back(pin);
    PDR_CHECK(!cand_buf.empty(), "Adequation",
              "operation '" + op.name + "' has no feasible operator (pinned to '" +
                  op_ptr[pin]->name + "')");
    return cand_buf;
  };

  // Picks the operator for `n` per the mapping strategy, evaluates it into
  // `best`, and commits it. `scratch` is the second pooled candidate the
  // strategies evaluate rejected plans into; selecting between the two is
  // a POD swap (the plan rows stay put in the arena).
  std::size_t round_robin_cursor = 0;
  Candidate best, scratch;
  auto place = [&](graph::NodeId n) {
    const Operation& op = *algo_op[n];
    const auto [variant, exec_kind] = resolve(op);
    const util::SymbolId nsym = op_sym_known(n, op);
    const util::SymbolId variant_sym =
        variant.empty() ? util::kEmptySymbol : schedule.intern(variant);
    const KindTable& tbl = kind_table(exec_kind);
    const std::vector<TimeNs>& durations = tbl.durations;
    const auto& cands = candidates(n, op, tbl);
    in_buf.clear();
    for (std::size_t i = in_off[n]; i < in_off[n + 1]; ++i) {
      const InEdgeRow& r = in_rows[i];
      // a committed producer's symbol is already resolved — pure read
      in_buf.push_back({st.finish[r.src], st.placed_on[r.src], r.bytes, r.e, op_sym(r.src)});
    }
    switch (options.strategy) {
      case MappingStrategy::RoundRobin: {
        const NodeId w = cands[round_robin_cursor++ % cands.size()];
        evaluate(n, w, nsym, variant, variant_sym, durations[w], best);
        commit(n, op, best, variant, variant_sym);
        return;
      }
      case MappingStrategy::FirstFeasible:
        evaluate(n, cands.front(), nsym, variant, variant_sym, durations[cands.front()], best);
        commit(n, op, best, variant, variant_sym);
        return;
      case MappingStrategy::SynDExList:
        break;
    }
    // Lower-bound prune: a candidate cannot finish before its operator
    // frees up and its inputs are all produced, and transfers/reconfig
    // only add delay on top — so once a best exists, any candidate whose
    // bound misses `best.end` loses (selection needs a strict improvement)
    // and its evaluation is skipped without changing the outcome. Disabled
    // when an eval log is attached so the log stays complete.
    TimeNs max_pred_finish = 0;
    for (const InEdge& in : in_buf) max_pred_finish = std::max(max_pred_finish, in.finish);
    const bool prune = options.eval_log == nullptr;
    bool have = false;
    for (NodeId w : cands) {
      if (have && prune &&
          std::max(st.operator_free[w], max_pred_finish) + durations[w] >= best.end)
        continue;
      evaluate(n, w, nsym, variant, variant_sym, durations[w], scratch);
      if (!have || scratch.end < best.end) {
        std::swap(best, scratch);
        have = true;
      }
    }
    commit(n, op, best, variant, variant_sym);
  };

  if (options.ready_policy == ReadyPolicy::IndexedHeap) {
    // Indexed ready-queue: indegree counters surface operations the
    // instant their last predecessor commits; a heap orders them by
    // critical-path remainder (SynDEx) or node id (the naive baselines'
    // "first ready in id order"). Ties break on node id either way, so
    // the result is deterministic and identical to the rescanning loop.
    // Heap entries carry their priority inline — comparisons stay in the
    // heap's own cache lines instead of chasing remainder[] at random
    // node ids. The naive strategies store 0.0 for every entry, so the
    // tie-break on node id reproduces their "first ready in id order".
    const bool by_priority = options.strategy == MappingStrategy::SynDExList;
    using ReadyEntry = std::pair<double, graph::NodeId>;
    const auto after = [](const ReadyEntry& a, const ReadyEntry& b) {
      if (a.first != b.first) return a.first < b.first;
      return a.second > b.second;
    };
    std::vector<ReadyEntry> heap_storage;
    heap_storage.reserve(algo_cap);
    std::priority_queue<ReadyEntry, std::vector<ReadyEntry>, decltype(after)> ready(
        after, std::move(heap_storage));
    // The pristine tracker snapshot and the critical-path priorities are
    // cached across runs (copying the snapshot is a few memcpys; building
    // it is two full edge scans). Priorities only exist for the SynDEx
    // strategy; the tracker's CSR serves the remainder walk, so the naive
    // strategies skip the whole critical-path computation.
    if (!cache_.tracker.has_value()) cache_.tracker.emplace(g);
    if (by_priority && !cache_.has_remainder) {
      cache_.remainder = cache_.tracker->critical_path_remainder(op_weight);
      cache_.has_remainder = true;
    }
    graph::ReadyTracker tracker(*cache_.tracker);
    const std::vector<double>& remainder = cache_.remainder;
    const auto priority_of = [&](graph::NodeId n) { return by_priority ? remainder[n] : 0.0; };
    for (graph::NodeId n : tracker.initial()) ready.emplace(priority_of(n), n);
    std::vector<graph::NodeId> newly_ready;
    while (!ready.empty()) {
      const graph::NodeId n = ready.top().second;
      ready.pop();
      place(n);
      newly_ready.clear();
      tracker.complete(n, newly_ready);
      for (graph::NodeId s : newly_ready) ready.emplace(priority_of(s), s);
    }
    PDR_CHECK(tracker.done(), "Adequation", "no ready operation (cycle?)");
  } else {
    // Reference engine: rescan all pending operations every round. Kept
    // as the equivalence oracle; the bitmap `done` and callback-based
    // predecessor walk only change constants, never selection order. Its
    // remainder comes straight from the digraph — same values as the
    // tracker-CSR walk (max over identical successor sets), different
    // code path, which is exactly what an oracle should exercise.
    const std::vector<double> remainder = options.strategy == MappingStrategy::SynDExList
                                              ? g.critical_path_remainder(op_weight)
                                              : std::vector<double>{};
    std::vector<char> done(algo_cap, 0);
    std::vector<graph::NodeId> pending = g.node_ids();
    while (!pending.empty()) {
      graph::NodeId best_op = graph::kNoNode;
      double best_prio = -1;
      for (graph::NodeId n : pending) {
        bool is_ready = true;
        g.for_each_predecessor(n, [&](graph::NodeId p) {
          if (!done[p]) is_ready = false;
        });
        if (!is_ready) continue;
        if (options.strategy != MappingStrategy::SynDExList) {
          best_op = n;
          break;
        }
        if (remainder[n] > best_prio) {
          best_prio = remainder[n];
          best_op = n;
        }
      }
      PDR_CHECK(best_op != graph::kNoNode, "Adequation", "no ready operation (cycle?)");
      place(best_op);
      done[best_op] = 1;
      pending.erase(std::remove(pending.begin(), pending.end(), best_op), pending.end());
    }
  }

  // Finalize: canonical (start, resource name) order, then totals.
  schedule.sort_items();
  schedule.recompute_totals();
  return schedule;
}

}  // namespace pdr::aaa
