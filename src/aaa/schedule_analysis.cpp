#include "aaa/schedule_analysis.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/strings.hpp"

namespace pdr::aaa {

namespace {

Finding finding(FindingKind kind, std::size_t first, std::size_t item,
                graph::EdgeId edge = graph::kNoEdge, graph::NodeId node = graph::kNoNode,
                std::string_view module = {}) {
  return Finding{kind, first, item, edge, node, module};
}

void sort_by_time(const Schedule& s, std::vector<std::size_t>& items) {
  const auto before = [&](std::size_t a, std::size_t b) {
    return s.start(a) != s.start(b) ? s.start(a) < s.start(b) : s.end(a) < s.end(b);
  };
  // A finished schedule's rows are in start order, so its timelines
  // usually are already; a stable sort would leave them as they are.
  if (!std::is_sorted(items.begin(), items.end(), before))
    std::stable_sort(items.begin(), items.end(), before);
}

/// The max-reach sweep over items in (start, end) order.
void sweep(const Schedule& s, std::span<const std::size_t> sorted, FindingKind kind,
           std::vector<Finding>& out) {
  std::size_t reach = kNoItem;
  for (const std::size_t item : sorted) {
    if (reach != kNoItem && s.start(item) < s.end(reach)) out.push_back(finding(kind, reach, item));
    if (reach == kNoItem || s.end(item) > s.end(reach)) reach = item;
  }
}

}  // namespace

ScheduleAnalysis::ScheduleAnalysis(const Schedule& schedule, const AlgorithmGraph& algorithm,
                                   const ArchitectureGraph& architecture)
    : s_(schedule), algorithm_(algorithm), architecture_(architecture) {
  const auto& g = algorithm.digraph();
  const auto edge_ids = g.edge_ids();
  const std::size_t edge_cap = edge_ids.empty() ? 0 : edge_ids.back() + 1;
  compute_of_.assign(g.node_capacity(), kNoItem);
  for (std::size_t i = 0; i < s_.size(); ++i) {
    const util::SymbolId r = s_.resource_sym(i);
    if (r >= timelines_.size()) timelines_.resize(r + std::size_t{1});
    timelines_[r].push_back(i);
    if (s_.kind(i) == ItemKind::Compute && s_.op(i) < compute_of_.size()) compute_of_[s_.op(i)] = i;
    if (s_.kind(i) == ItemKind::Transfer)
      (s_.edge(i) < edge_cap ? transfers_ : untagged_).push_back(i);
    if (s_.kind(i) == ItemKind::Reconfig) reconfigs_.push_back(i);
  }
  // Counting sort of the tagged transfers by edge; rows stay in order
  // within an edge.
  edge_offset_.assign(edge_cap + 1, 0);
  for (const std::size_t i : transfers_) ++edge_offset_[s_.edge(i) + 1];
  std::partial_sum(edge_offset_.begin(), edge_offset_.end(), edge_offset_.begin());
  std::vector<std::size_t> next(edge_offset_.begin(), edge_offset_.end() - 1);
  std::vector<std::size_t> by_edge(transfers_.size());
  for (const std::size_t i : transfers_) by_edge[next[s_.edge(i)]++] = i;
  transfers_ = std::move(by_edge);
  for (util::SymbolId r = 0; r < timelines_.size(); ++r) {
    if (timelines_[r].empty()) continue;
    resources_.push_back(r);
    sort_by_time(s_, timelines_[r]);
  }
  std::sort(resources_.begin(), resources_.end(),
            [&](util::SymbolId a, util::SymbolId b) { return s_.name(a) < s_.name(b); });
  flags_.assign(timelines_.size(), 0);
  for (const NodeId w : architecture.operators()) {
    const util::SymbolId r = s_.symbols.find(architecture.op(w).name);
    if (r < flags_.size()) flags_[r] = architecture.op(w).kind == OperatorKind::FpgaRegion ? 3 : 1;
  }
}

std::span<const std::size_t> ScheduleAnalysis::timeline(util::SymbolId resource) const {
  if (resource >= timelines_.size()) return {};
  return timelines_[resource];
}

std::string ScheduleAnalysis::span(std::size_t item) const {
  return strprintf("'%s' [%lld..%lld ns]", s_.label(item).c_str(),
                   static_cast<long long>(s_.start(item)), static_cast<long long>(s_.end(item)));
}

std::span<const std::size_t> ScheduleAnalysis::tagged_chain(graph::EdgeId e) const {
  return std::span<const std::size_t>(transfers_)
      .subspan(edge_offset_[e], edge_offset_[e + 1] - edge_offset_[e]);
}

void ScheduleAnalysis::overlaps(std::vector<Finding>& out) const {
  for (const util::SymbolId r : resources_) sweep(s_, timelines_[r], FindingKind::Overlap, out);
}

void ScheduleAnalysis::port_overlaps(std::vector<Finding>& out) const {
  std::vector<std::size_t> port = reconfigs_;
  sort_by_time(s_, port);
  sweep(s_, port, FindingKind::PortOverlap, out);
}

void ScheduleAnalysis::dependencies(std::vector<Finding>& out) const {
  const auto& g = algorithm_.digraph();
  std::vector<char> consumed(s_.size(), 0);
  std::vector<std::size_t> matched;
  for (const graph::EdgeId e : g.edge_ids()) {
    const graph::NodeId p = g.edge_from(e);
    const graph::NodeId c = g.edge_to(e);
    const std::size_t ip = compute_of(p);
    const std::size_t ic = compute_of(c);
    if (ip == kNoItem || ic == kNoItem) {
      out.push_back(finding(FindingKind::Unscheduled, kNoItem, kNoItem, e, ip == kNoItem ? p : c));
      continue;
    }
    if (s_.start(ic) < s_.end(ip)) out.push_back(finding(FindingKind::Precedence, ip, ic, e));
    const Bytes bytes = g.edge(e).bytes;
    if (s_.resource_sym(ip) == s_.resource_sym(ic) || bytes == 0) continue;
    std::span<const std::size_t> chain = tagged_chain(e);
    if (chain.empty() && !untagged_.empty()) {
      // The earliest unconsumed match per medium, so parallel edges each
      // claim their own rows.
      std::map<std::string_view, std::size_t> per_medium;
      for (const std::size_t i : untagged_)
        if (consumed[i] == 0 && s_.src(i) == g[p].name && s_.dst(i) == g[c].name &&
            s_.bytes(i) == bytes) {
          const auto [slot, inserted] = per_medium.emplace(s_.resource(i), i);
          if (!inserted && s_.start(i) < s_.start(slot->second)) slot->second = i;
        }
      matched.clear();
      for (const auto& [medium, i] : per_medium) matched.push_back(i);
      chain = matched;
    }
    if (chain.empty()) out.push_back(finding(FindingKind::MissingTransfer, ip, ic, e));
    for (const std::size_t i : chain) {
      consumed[i] = 1;
      if (s_.bytes(i) != bytes) out.push_back(finding(FindingKind::WrongPayload, ip, i, e));
      if (s_.start(i) < s_.end(ip) || s_.end(i) > s_.start(ic))
        out.push_back(finding(FindingKind::TransferWindow, ip, i, e));
    }
  }
}

void ScheduleAnalysis::residency_walk(const std::map<std::string, std::string>& preloaded,
                                      bool infer_preload, const ConstraintSet* constraints,
                                      std::vector<Finding>& out) const {
  for (const NodeId w : architecture_.operators_of_kind(OperatorKind::FpgaRegion)) {
    const OperatorNode& region = architecture_.op(w);
    // Constraints name a region by its floorplan region when set.
    const std::string& declared = region.region.empty() ? region.name : region.region;
    std::string_view resident = preload(preloaded, region.name);
    std::size_t loaded_by = kNoItem;
    for (const std::size_t i : timeline(s_.symbols.find(region.name))) {
      if (s_.kind(i) == ItemKind::Reconfig) {
        const ModuleConstraint* m = constraints == nullptr
                                        ? nullptr
                                        : constraints->find_module(std::string(s_.module_name(i)));
        if (m != nullptr && m->region != declared)
          out.push_back(finding(FindingKind::ForeignModule, kNoItem, i, graph::kNoEdge, w));
        resident = s_.module_name(i);
        loaded_by = i;
      } else if (s_.kind(i) == ItemKind::Compute && s_.variant_sym(i) != util::kEmptySymbol) {
        const std::string_view variant = s_.variant(i);
        if (resident.empty() && loaded_by == kNoItem && infer_preload)
          resident = variant;
        else if (resident.empty() && !infer_preload)
          out.push_back(finding(FindingKind::Unconfigured, kNoItem, i, graph::kNoEdge, w));
        else if (variant != resident)
          out.push_back(finding(FindingKind::WrongModule, loaded_by, i, graph::kNoEdge, w, resident));
      }
    }
  }
}

void ScheduleAnalysis::data_crossings(std::vector<Finding>& out) const {
  std::vector<std::vector<std::size_t>> loads(flags_.size());  // per region, row order
  for (const std::size_t load : reconfigs_)
    if (is_region(s_.resource_sym(load))) loads[s_.resource_sym(load)].push_back(load);

  const auto& g = algorithm_.digraph();
  for (const graph::EdgeId e : g.edge_ids()) {
    const std::size_t producer = compute_of(g.edge_from(e));
    const std::size_t consumer = compute_of(g.edge_to(e));
    if (producer == kNoItem || consumer == kNoItem) continue;

    // Data leaves the producer's region when its first transfer hop
    // starts and reaches the consumer's region when the last hop ends;
    // same-operator dependencies never leave the region.
    TimeNs departure = s_.start(consumer);
    TimeNs arrival = s_.end(producer);
    for (const std::size_t hop : tagged_chain(e)) {
      departure = std::min(departure, s_.start(hop));
      arrival = std::max(arrival, s_.end(hop));
    }

    // Producer side: output lingers in [producer.end, departure).
    if (is_region(s_.resource_sym(producer)))
      for (const std::size_t load : loads[s_.resource_sym(producer)])
        if (std::max(s_.start(load), s_.end(producer)) < std::min(s_.end(load), departure))
          out.push_back(finding(FindingKind::DataCrossing, producer, load, e));

    // Consumer side: input waits in [arrival, consumer.start). The load
    // that brings in the consumer's own variant is the normal on-demand
    // pattern; only a load of some other module displaces the data.
    if (is_region(s_.resource_sym(consumer)))
      for (const std::size_t load : loads[s_.resource_sym(consumer)])
        if ((s_.variant_sym(consumer) == util::kEmptySymbol ||
             s_.module_sym(load) != s_.variant_sym(consumer)) &&
            std::max(s_.start(load), arrival) < std::min(s_.end(load), s_.start(consumer)))
          out.push_back(finding(FindingKind::DataCrossing, load, consumer, e));
  }
}

std::vector<Finding> ScheduleAnalysis::structural() const {
  std::vector<Finding> out;
  for (std::size_t i = 0; i < s_.size(); ++i)
    if (s_.end(i) < s_.start(i)) out.push_back(finding(FindingKind::NegativeDuration, kNoItem, i));
  overlaps(out);
  dependencies(out);
  residency_walk({}, /*infer_preload=*/true, nullptr, out);
  port_overlaps(out);
  for (Finding& f : out)
    if ((f.kind == FindingKind::Overlap || f.kind == FindingKind::PortOverlap) &&
        s_.start(f.item) == s_.start(f.first) && f.item < f.first)
      std::swap(f.first, f.item);
  return out;
}

std::string_view ScheduleAnalysis::preload(const std::map<std::string, std::string>& preloaded,
                                           std::string_view resource) {
  const auto it = preloaded.find(std::string(resource));
  return it == preloaded.end() ? std::string_view() : std::string_view(it->second);
}

std::vector<Residency> ScheduleAnalysis::residencies(
    std::string_view resource, const std::map<std::string, std::string>& preloaded) const {
  std::vector<Residency> out;
  if (const std::string_view module = preload(preloaded, resource); !module.empty())
    out.push_back(Residency{module, 0, 0});
  for (const std::size_t i : timeline(s_.symbols.find(resource))) {
    if (s_.kind(i) != ItemKind::Reconfig) continue;
    if (!out.empty()) out.back().to = s_.start(i);
    out.push_back(Residency{s_.module_name(i), s_.end(i), 0});
  }
  if (!out.empty()) out.back().to = std::max(s_.makespan, out.back().from);
  return out;
}

}  // namespace pdr::aaa
