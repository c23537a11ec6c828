#include "aaa/schedule.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/text_writer.hpp"

namespace pdr::aaa {

using namespace pdr::literals;

const char* item_kind_name(ItemKind kind) {
  switch (kind) {
    case ItemKind::Compute: return "compute";
    case ItemKind::Transfer: return "transfer";
    case ItemKind::Reconfig: return "reconfig";
  }
  return "?";
}

std::string_view Schedule::name(util::SymbolId sym) const {
  if (sym == util::kNoSymbol) return {};
  return symbols.name(sym);
}

std::string Schedule::label(std::size_t i) const {
  std::string out;
  TextWriter w(out);
  append_label(w, i);
  return out;
}

std::string_view Schedule::placement_name(graph::NodeId n) const {
  if (n >= placement.size()) return {};
  return name(placement[n]);
}

std::size_t Schedule::placement_count() const {
  std::size_t count = 0;
  for (const util::SymbolId sym : placement)
    if (sym != util::kNoSymbol) ++count;
  return count;
}

void Schedule::reserve(std::size_t n) {
  kind_.reserve(n);
  start_.reserve(n);
  end_.reserve(n);
  resource_.reserve(n);
  op_.reserve(n);
  label_.reserve(n);
  variant_.reserve(n);
  src_.reserve(n);
  dst_.reserve(n);
  bytes_.reserve(n);
  edge_.reserve(n);
  module_.reserve(n);
  exposed_stall_.reserve(n);
}

std::size_t Schedule::push_row(ItemKind k, util::SymbolId resource_sym, TimeNs tstart,
                               TimeNs tend) {
  const std::size_t i = kind_.size();
  kind_.push_back(k);
  start_.push_back(tstart);
  end_.push_back(tend);
  resource_.push_back(resource_sym);
  op_.push_back(graph::kNoNode);
  label_.push_back(util::kNoSymbol);
  variant_.push_back(util::kEmptySymbol);
  src_.push_back(util::kEmptySymbol);
  dst_.push_back(util::kEmptySymbol);
  bytes_.push_back(0);
  edge_.push_back(graph::kNoEdge);
  module_.push_back(util::kEmptySymbol);
  exposed_stall_.push_back(0);
  return i;
}

std::size_t Schedule::push_compute(util::SymbolId resource_sym, TimeNs tstart, TimeNs tend,
                                   graph::NodeId node, util::SymbolId label_sym,
                                   util::SymbolId variant_sym) {
  const std::size_t i = push_row(ItemKind::Compute, resource_sym, tstart, tend);
  op_[i] = node;
  label_[i] = label_sym;
  variant_[i] = variant_sym;
  return i;
}

std::size_t Schedule::push_transfer(util::SymbolId resource_sym, TimeNs tstart, TimeNs tend,
                                    util::SymbolId src_sym, util::SymbolId dst_sym, Bytes nbytes,
                                    graph::EdgeId e) {
  const std::size_t i = push_row(ItemKind::Transfer, resource_sym, tstart, tend);
  src_[i] = src_sym;
  dst_[i] = dst_sym;
  bytes_[i] = nbytes;
  edge_[i] = e;
  return i;
}

std::size_t Schedule::push_reconfig(util::SymbolId resource_sym, TimeNs tstart, TimeNs tend,
                                    util::SymbolId module_sym, TimeNs stall) {
  const std::size_t i = push_row(ItemKind::Reconfig, resource_sym, tstart, tend);
  module_[i] = module_sym;
  exposed_stall_[i] = stall;
  return i;
}

void Schedule::push_item(const ScheduledItem& item) {
  const std::size_t i = push_row(item.kind, intern(item.resource), item.start, item.end);
  op_[i] = item.op;
  label_[i] = intern(item.label);
  variant_[i] = intern(item.variant);
  src_[i] = intern(item.src);
  dst_[i] = intern(item.dst);
  bytes_[i] = item.bytes;
  edge_[i] = item.edge;
  module_[i] = intern(item.module);
  exposed_stall_[i] = item.exposed_stall;
}

ScheduledItem Schedule::item(std::size_t i) const {
  PDR_CHECK(i < kind_.size(), "Schedule::item", "index out of bounds");
  ScheduledItem out;
  out.kind = kind_[i];
  out.label = label(i);
  out.resource = std::string(resource(i));
  out.start = start_[i];
  out.end = end_[i];
  out.op = op_[i];
  out.variant = std::string(variant(i));
  out.src = std::string(src(i));
  out.dst = std::string(dst(i));
  out.bytes = bytes_[i];
  out.edge = edge_[i];
  out.module = std::string(module_name(i));
  out.exposed_stall = exposed_stall_[i];
  return out;
}

template <typename Pred>
void Schedule::erase_rows(Pred&& keep) {
  std::size_t w = 0;
  for (std::size_t i = 0; i < kind_.size(); ++i) {
    if (!keep(i)) continue;
    if (w != i) {
      kind_[w] = kind_[i];
      start_[w] = start_[i];
      end_[w] = end_[i];
      resource_[w] = resource_[i];
      op_[w] = op_[i];
      label_[w] = label_[i];
      variant_[w] = variant_[i];
      src_[w] = src_[i];
      dst_[w] = dst_[i];
      bytes_[w] = bytes_[i];
      edge_[w] = edge_[i];
      module_[w] = module_[i];
      exposed_stall_[w] = exposed_stall_[i];
    }
    ++w;
  }
  kind_.resize(w);
  start_.resize(w);
  end_.resize(w);
  resource_.resize(w);
  op_.resize(w);
  label_.resize(w);
  variant_.resize(w);
  src_.resize(w);
  dst_.resize(w);
  bytes_.resize(w);
  edge_.resize(w);
  module_.resize(w);
  exposed_stall_.resize(w);
}

void Schedule::erase_item(std::size_t i) {
  PDR_CHECK(i < kind_.size(), "Schedule::erase_item", "index out of bounds");
  erase_rows([&](std::size_t row) { return row != i; });
}

void Schedule::erase_items_if(const std::function<bool(const ScheduledItem&)>& pred) {
  erase_rows([&](std::size_t row) { return !pred(item(row)); });
}

void Schedule::sort_items() {
  // Resource ties break on the *name*, not the symbol id: symbols are
  // assigned in first-intern order, so sorting by id would depend on
  // scheduling history instead of giving the canonical (start, resource
  // name) order the string-keyed representation had.
  std::vector<util::SymbolId> rank(symbols.size(), 0);
  std::size_t rank_count = 0;
  {
    std::vector<util::SymbolId> present;
    std::vector<char> seen(symbols.size(), 0);
    for (const util::SymbolId sym : resource_) {
      if (seen[sym]) continue;
      seen[sym] = 1;
      present.push_back(sym);
    }
    std::sort(present.begin(), present.end(), [&](util::SymbolId a, util::SymbolId b) {
      return symbols.name(a) < symbols.name(b);
    });
    for (std::size_t r = 0; r < present.size(); ++r)
      rank[present[r]] = static_cast<util::SymbolId>(r);
    rank_count = present.size();
  }

  PDR_CHECK(kind_.size() <= std::numeric_limits<std::uint32_t>::max(), "Schedule::sort_items",
            "schedule too large");
  const std::size_t n = kind_.size();
  const auto apply_order = [&](const auto& order, const auto& index_of) {
    const auto apply = [&](auto& column) {
      using Column = std::decay_t<decltype(column)>;
      Column next;
      next.reserve(column.size());
      for (const auto& k : order) next.push_back(column[index_of(k)]);
      column = std::move(next);
    };
    apply(kind_);
    apply(start_);
    apply(end_);
    apply(resource_);
    apply(op_);
    apply(label_);
    apply(variant_);
    apply(src_);
    apply(dst_);
    apply(bytes_);
    apply(edge_);
    apply(module_);
    apply(exposed_stall_);
  };

  // Fast path: when (start, rank, index) fit in 35 + 8 + 21 bits — starts
  // under ~34 s, at most 256 resources, at most 2M items — pack the whole
  // key into one u64 and order the keys by stable LSD radix passes of 8
  // bits over the (start, rank) bits, up to the highest one any key sets.
  // Keys enter in index order and every pass is stable, so ties keep emit
  // order without a pass over the index bits. Both paths produce the
  // identical lexicographic (start, resource-name rank, emit index) order.
  constexpr unsigned kIndexBits = 21;
  constexpr unsigned kRankBits = 8;
  constexpr unsigned kDigitBits = 8;
  constexpr TimeNs kMaxPackedStart = TimeNs{1} << (64 - kIndexBits - kRankBits);
  TimeNs lo = 0;
  TimeNs hi = 0;
  for (const TimeNs s : start_) {
    lo = std::min(lo, s);
    hi = std::max(hi, s);
  }
  if (lo >= 0 && hi < kMaxPackedStart && rank_count <= (std::size_t{1} << kRankBits) &&
      n <= (std::size_t{1} << kIndexBits)) {
    std::vector<std::uint64_t> order(n);
    std::uint64_t any = 0;
    for (std::size_t i = 0; i < n; ++i) {
      order[i] = (static_cast<std::uint64_t>(start_[i]) << (kIndexBits + kRankBits)) |
                 (static_cast<std::uint64_t>(rank[resource_[i]]) << kIndexBits) |
                 static_cast<std::uint64_t>(i);
      any |= order[i];
    }
    std::vector<std::uint64_t> spare(n);
    for (unsigned shift = kIndexBits; shift < 64 && (any >> shift) != 0; shift += kDigitBits) {
      const auto digit = [shift](std::uint64_t k) { return (k >> shift) & 0xff; };
      std::array<std::uint32_t, std::size_t{1} << kDigitBits> at{};
      for (const std::uint64_t k : order) ++at[digit(k)];
      std::uint32_t sum = 0;
      for (std::uint32_t& slot : at) sum += std::exchange(slot, sum);
      for (const std::uint64_t k : order) spare[at[digit(k)]++] = k;
      order.swap(spare);
    }
    apply_order(order, [](std::uint64_t k) {
      return static_cast<std::size_t>(k & ((std::uint64_t{1} << kIndexBits) - 1));
    });
    return;
  }

  // General path: keys carry (start, rank, index) inline so comparisons
  // read contiguous 16-byte structs instead of gathering from columns.
  struct SortKey {
    TimeNs start;
    util::SymbolId rank;
    std::uint32_t index;
  };
  std::vector<SortKey> order(n);
  for (std::size_t i = 0; i < n; ++i)
    order[i] = {start_[i], rank[resource_[i]], static_cast<std::uint32_t>(i)};
  std::sort(order.begin(), order.end(), [](const SortKey& a, const SortKey& b) {
    if (a.start != b.start) return a.start < b.start;
    if (a.rank != b.rank) return a.rank < b.rank;
    return a.index < b.index;  // deterministic: ties keep emit order
  });
  apply_order(order, [](const SortKey& k) { return static_cast<std::size_t>(k.index); });
}

void Schedule::recompute_totals() {
  makespan = 0;
  resource_busy.assign(symbols.size(), 0);
  for (std::size_t i = 0; i < kind_.size(); ++i) {
    makespan = std::max(makespan, end_[i]);
    resource_busy[resource_[i]] += end_[i] - start_[i];
  }
}

double Schedule::utilization(std::string_view resource) const {
  if (makespan <= 0) return 0.0;
  const util::SymbolId sym = symbols.find(resource);
  if (sym == util::kNoSymbol || sym >= resource_busy.size()) return 0.0;
  return static_cast<double>(resource_busy[sym]) / static_cast<double>(makespan);
}

TimeNs Schedule::period_lower_bound() const {
  TimeNs bound = 0;
  for (const TimeNs busy : resource_busy) bound = std::max(bound, busy);
  return bound;
}

void Schedule::append_label(TextWriter& w, std::size_t i) const {
  const util::SymbolId sym = label_[i];
  if (sym != util::kNoSymbol) {
    w << symbols.name(sym);
    return;
  }
  switch (kind_[i]) {
    case ItemKind::Transfer: w << name(src_[i]) << "->" << name(dst_[i]); return;
    case ItemKind::Reconfig: w << "load " << name(module_[i]); return;
    case ItemKind::Compute: return;
  }
}

std::string Schedule::to_string() const {
  std::string out = strprintf("schedule: makespan %.3f us, %d reconfigs (%.3f us exposed)\n",
                              to_us(makespan), reconfig_count, to_us(reconfig_exposed));
  TextWriter w(out);
  for (std::size_t i = 0; i < size(); ++i) {
    w << "  ";
    w.fixed(to_us(start_[i]), 3, 9) << "..";
    w.fixed(to_us(end_[i]), 3, 9) << " us  ";
    w.left(item_kind_name(kind_[i]), 8) << ' ';
    w.left(resource(i), 10) << ' ';
    append_label(w, i);
    w << '\n';
  }
  return out;
}

std::string Schedule::to_csv() const {
  std::string out = "kind,label,resource,start_ns,end_ns,variant,module\n";
  TextWriter w(out);
  for (std::size_t i = 0; i < size(); ++i) {
    w << item_kind_name(kind_[i]) << ',';
    append_label(w, i);
    w << ',' << resource(i) << ',' << start_[i] << ',' << end_[i] << ',' << variant(i) << ','
      << module_name(i) << '\n';
  }
  return out;
}

std::string Schedule::gantt(int width) const {
  if (empty() || makespan == 0) return "(empty schedule)\n";
  // Rows appear in first-appearance order of the items, as before.
  std::vector<util::SymbolId> resources;
  {
    std::vector<char> seen(symbols.size(), 0);
    for (const util::SymbolId sym : resource_) {
      if (seen[sym]) continue;
      seen[sym] = 1;
      resources.push_back(sym);
    }
  }

  std::string out;
  for (const util::SymbolId res : resources) {
    std::string bar(static_cast<std::size_t>(width), '.');
    for (std::size_t i = 0; i < size(); ++i) {
      if (resource_[i] != res) continue;
      auto pos = [&](TimeNs t) {
        return std::min<std::size_t>(static_cast<std::size_t>(width) - 1,
                                     static_cast<std::size_t>(t * width / makespan));
      };
      const char mark = kind_[i] == ItemKind::Compute    ? '#'
                        : kind_[i] == ItemKind::Transfer ? '='
                                                         : 'R';
      // Zero-duration items still get one mark cell so they stay visible.
      const std::size_t lo = pos(start_[i]);
      const std::size_t hi = std::max(lo, end_[i] > start_[i] ? pos(end_[i] - 1) : lo);
      for (std::size_t j = lo; j <= hi; ++j) bar[j] = mark;
    }
    out += strprintf("%-10s |%s|\n", std::string(symbols.name(res)).c_str(), bar.c_str());
  }
  out += strprintf("%-10s  0%*s%.1f us   (#=compute ==transfer R=reconfig)\n", "", width - 8, "",
                   to_us(makespan));
  return out;
}

void export_schedule(const Schedule& schedule, obs::Tracer& tracer) {
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    std::vector<obs::TraceArg> args;
    const std::string variant(schedule.variant(i));
    const std::string module(schedule.module_name(i));
    if (!variant.empty()) args.push_back({"variant", variant});
    if (!module.empty()) args.push_back({"module", module});
    if (schedule.bytes(i) > 0) args.push_back({"bytes", std::to_string(schedule.bytes(i))});
    if (schedule.kind(i) == ItemKind::Reconfig && schedule.exposed_stall(i) > 0)
      args.push_back({"exposed_stall_ns", std::to_string(schedule.exposed_stall(i))});
    tracer.span(std::string(schedule.resource(i)), schedule.label(i),
                std::string("sched_") + item_kind_name(schedule.kind(i)), schedule.start(i),
                schedule.end(i), std::move(args));
  }
}

}  // namespace pdr::aaa
