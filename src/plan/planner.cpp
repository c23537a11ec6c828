#include "plan/planner.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <utility>

#include "fabric/config_port.hpp"
#include "lint/floorplan_rules.hpp"
#include "synth/elaborate.hpp"
#include "synth/map.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "verify/verify.hpp"

namespace pdr::plan {

namespace {

/// xorshift64: the deterministic move-order source. std::mt19937 would do,
/// but the exact stream is part of the planner's byte-stability contract
/// and this one is ours.
struct Rng {
  std::uint64_t state;
  explicit Rng(std::uint64_t seed) : state(seed == 0 ? 0x9e3779b97f4a7c15ULL : seed) {}
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : static_cast<std::size_t>(next() % n); }
};

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

/// Per-region demand derived from the algorithm graph: the worst variant
/// the region's duration entries can execute sizes the span, its port
/// widths size the bus macros.
struct RegionDemand {
  std::string name;  ///< operator name
  int worst_cols = fabric::kMinReconfigClbCols;
  int worst_slices = 0;
  int in_bits = 8;
  int out_bits = 8;
};

/// One candidate solution: a span per region, architecture order.
struct Span {
  int col_lo = 0;
  int width = fabric::kMinReconfigClbCols;
  int col_hi() const { return col_lo + width - 1; }
};

struct Evaluation {
  bool feasible = false;
  TimeNs makespan = 0;
  TimeNs reconfig_exposed = 0;
  Bytes total_payload = 0;
  std::vector<RegionPlacement> placements;
  std::vector<fabric::Region> fabric_regions;
  int free_cols = 0;
};

/// The two figures of a schedule the search compares.
struct Outcome {
  TimeNs makespan = 0;
  TimeNs reconfig_exposed = 0;
};

/// Strict objective order: schedule first, then exposure, then total
/// configuration payload (fewer frames = faster SEU scrubs and smaller
/// store), then the spans themselves as the deterministic tie-break.
bool better(const Evaluation& a, const Evaluation& b, const std::vector<Span>& sa,
            const std::vector<Span>& sb) {
  if (a.makespan != b.makespan) return a.makespan < b.makespan;
  if (a.reconfig_exposed != b.reconfig_exposed) return a.reconfig_exposed < b.reconfig_exposed;
  if (a.total_payload != b.total_payload) return a.total_payload < b.total_payload;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    if (sa[i].width != sb[i].width) return sa[i].width < sb[i].width;
    if (sa[i].col_lo != sb[i].col_lo) return sa[i].col_lo < sb[i].col_lo;
  }
  return false;
}

/// Resource usage of one operator kind, empty on elaboration failure (the
/// project may name kinds the elaborator cannot build; lint already warns
/// about those with PDR017, the planner just sizes what it can).
std::optional<synth::ResourceUsage> usage_of(const std::string& kind, const synth::Params& params,
                                             bool wrap) {
  try {
    netlist::Netlist nl = synth::elaborate_operator(kind, params);
    if (wrap) nl = synth::wrap_executive(nl);
    return synth::map_netlist(nl);
  } catch (const Error&) {
    return std::nullopt;
  }
}

/// Dedup key for (kind, params) sizing work.
std::string variant_key(const std::string& kind, const synth::Params& params) {
  std::string key = kind;
  for (const auto& [k, v] : params) key += ";" + k + "=" + std::to_string(v);
  return key;
}

/// Port bit-widths of one variant kind for bus-macro sizing.
std::optional<std::pair<int, int>> port_bits_of(const std::string& kind,
                                                const synth::Params& params) {
  try {
    const netlist::Netlist nl = synth::wrap_executive(synth::elaborate_operator(kind, params));
    return std::make_pair(nl.input_bits(), nl.output_bits());
  } catch (const Error&) {
    return std::nullopt;
  }
}

class Planner {
 public:
  Planner(const aaa::Project& project, const PlanOptions& options)
      : project_(project),
        options_(options),
        adequation_(project.algorithm, project.architecture, project.durations),
        icap_(fabric::ConfigPort::default_timing(fabric::PortKind::Icap)) {
    collect_regions();
    collect_static_reserve();
  }

  const fabric::DeviceModel& device() const { return device_; }
  const std::vector<RegionDemand>& demands() const { return demands_; }
  int static_cols() const { return static_cols_; }

  /// Right-packed spans with the given widths, in architecture order:
  /// the last region hugs the right device edge, mirroring the paper's
  /// left-static / right-dynamic pipeline floorplans.
  std::vector<Span> pack_right(const std::vector<int>& widths) const {
    std::vector<Span> spans(widths.size());
    int next_hi = device_.clb_cols - 1;
    for (std::size_t i = widths.size(); i-- > 0;) {
      spans[i].width = widths[i];
      spans[i].col_lo = next_hi - widths[i] + 1;
      next_hi = spans[i].col_lo - 1;
    }
    return spans;
  }

  /// Builds + lints + prices + schedules one candidate. Infeasible
  /// candidates (fabric rejection, lint errors, missing static reserve)
  /// come back with feasible = false and are never scheduled.
  Evaluation evaluate(const std::vector<Span>& spans) {
    Evaluation ev;
    fabric::Floorplan plan(device_);
    try {
      for (std::size_t i = 0; i < spans.size(); ++i)
        plan.add_region(demands_[i].name, spans[i].col_lo, spans[i].col_hi(), true,
                        demands_[i].in_bits, demands_[i].out_bits);
    } catch (const Error&) {
      return ev;  // overlap, out of bounds, edge bus macro, too narrow
    }
    // The PDR020–025 family is the feasibility oracle proper: anything the
    // fabric accepted must also lint clean before it is worth scheduling.
    if (lint::check_floorplan(plan).errors() != 0) return ev;
    ev.free_cols = static_cast<int>(plan.free_columns().size());
    if (options_.reserve_static && ev.free_cols < static_cols_) return ev;

    std::map<std::string, TimeNs> load_ns;
    ev.placements.resize(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      RegionPlacement& p = ev.placements[i];
      p.name = demands_[i].name;
      p.col_lo = spans[i].col_lo;
      p.col_hi = spans[i].col_hi();
      p.width = fabric::ClbCols{spans[i].width};
      p.worst_variant_cols = demands_[i].worst_cols;
      p.worst_variant_slices = demands_[i].worst_slices;
      p.in_bits = demands_[i].in_bits;
      p.out_bits = demands_[i].out_bits;
      p.payload_bytes = plan.region_payload_bytes(p.name);
      p.load_ns = price(p.payload_bytes);
      ev.total_payload += p.payload_bytes;
      load_ns[p.name] = p.load_ns;
    }

    const std::optional<Outcome>& outcome = outcome_for(load_ns);
    if (!outcome) return ev;  // no feasible operator under this pricing
    ev.makespan = outcome->makespan;
    ev.reconfig_exposed = outcome->reconfig_exposed;
    ++evaluated_;
    ev.fabric_regions = plan.regions();
    ev.feasible = true;
    return ev;
  }

  /// What the search reads of the schedule under one pricing table, run
  /// once per distinct table: the cost model reads nothing but the table,
  /// so candidates that price every region alike (a shift, or widths with
  /// equal frame payloads) share one adequation run. Empty when the
  /// adequation threw; failed runs are remembered too. No schedule is
  /// kept, so memory stays flat however many tables the search tries.
  const std::optional<Outcome>& outcome_for(const std::map<std::string, TimeNs>& load_ns) {
    const auto [it, fresh] = outcomes_.try_emplace(load_ns);
    if (!fresh) return it->second;
    try {
      const aaa::Schedule schedule = run(load_ns);
      it->second = Outcome{schedule.makespan, schedule.reconfig_exposed};
    } catch (const Error&) {
    }
    return it->second;
  }

  /// One adequation run under a region -> load-time table.
  aaa::Schedule run(const std::map<std::string, TimeNs>& load_ns) {
    ++scheduled_;
    aaa::AdequationOptions options = options_.schedule_options;
    options.reconfig_cost = [&load_ns](const std::string& region, const std::string&) {
      const auto it = load_ns.find(region);
      return it != load_ns.end() ? it->second : aaa::kPaperReconfigCost;
    };
    return adequation_.run(options);
  }

  /// Width -> frames -> reconfiguration duration, the same
  /// max(store-fetch, port-stream) + manager-overhead chain
  /// mccdma::case_study_reconfig_cost prices real bitstreams with.
  TimeNs price(Bytes payload) const {
    const TimeNs fetch = options_.store_latency_ns +
                         transfer_time_ns(payload, options_.store_bandwidth_bytes_per_s);
    const double port_bps = icap_.clock_hz * icap_.width_bits / 8.0;
    const TimeNs port = icap_.setup_overhead + transfer_time_ns(payload, port_bps);
    return std::max(fetch, port) + options_.manager_overhead_ns;
  }

  PlanResult finish(Evaluation ev, int rounds) {
    PDR_CHECK(ev.feasible, "plan_floorplan",
              strprintf("no feasible floorplan: %zu region(s) plus %d static column(s) do not "
                        "fit the %d-column %s",
                        demands_.size(), static_cols_, device_.clb_cols, device_.name.c_str()));
    PlanResult result;
    result.device = device_;
    result.regions = std::move(ev.placements);
    result.fabric_regions = std::move(ev.fabric_regions);
    result.static_cols_reserved = options_.reserve_static ? static_cols_ : 0;
    result.free_cols = ev.free_cols;
    result.makespan = ev.makespan;
    result.reconfig_exposed = ev.reconfig_exposed;
    result.rounds = rounds;
    result.evaluated = evaluated_;
    result.lint = lint::check_floorplan(device_, result.fabric_regions);

    // pdr::verify certifies the schedule the plan was optimized for,
    // re-run here because the memo keeps no schedules.
    const verify::Certificate cert = verify::verify_schedule(
        run(result.region_load_ns()), project_.algorithm, project_.architecture,
        verify::VerifyOptions{nullptr, options_.schedule_options.preloaded});
    result.certified = cert.certified();
    result.certificate_error = cert.first_error();
    result.scheduled = scheduled_;
    return result;
  }

 private:
  void collect_regions() {
    const auto& arch = project_.architecture;
    std::string device_name;
    for (aaa::NodeId n : arch.operators_of_kind(aaa::OperatorKind::FpgaRegion)) {
      const aaa::OperatorNode& op = arch.op(n);
      if (!op.device.empty()) {
        PDR_CHECK(device_name.empty() || device_name == op.device, "plan_floorplan",
                  "region operators span devices '" + device_name + "' and '" + op.device +
                      "'; one floorplan covers one device");
        device_name = op.device;
      }
      RegionDemand d;
      d.name = op.name;
      size_demand(op, d);
      demands_.push_back(std::move(d));
    }
    PDR_CHECK(!demands_.empty(), "plan_floorplan",
              "the architecture has no fpga_region operator; nothing to place");
    device_ = fabric::device_by_name(device_name.empty() ? "XC2V2000" : device_name);
  }

  /// Sizes a region from the worst (widest) variant its duration entries
  /// can execute, in CLB columns on the target device.
  void size_demand(const aaa::OperatorNode& op, RegionDemand& d) {
    const fabric::DeviceModel sizing_device =
        fabric::device_by_name(op.device.empty() ? "XC2V2000" : op.device);
    std::set<std::string> seen;
    const auto consider = [&](const std::string& kind, const synth::Params& params) {
      if (!project_.durations.supports(kind, op)) return;
      if (!seen.insert(variant_key(kind, params)).second) return;
      if (const auto usage = usage_of(kind, params, /*wrap=*/true)) {
        d.worst_cols = std::max(d.worst_cols, synth::columns_needed(*usage, sizing_device));
        d.worst_slices = std::max(d.worst_slices, usage->slices);
      }
      if (const auto bits = port_bits_of(kind, params)) {
        d.in_bits = std::max(d.in_bits, bits->first);
        d.out_bits = std::max(d.out_bits, bits->second);
      }
    };
    project_.algorithm.digraph().for_each_live_node(
        [&](graph::NodeId, const aaa::Operation& node) {
          for (const auto& alt : node.alternatives) consider(alt.kind, alt.params);
          if (!node.conditioned()) consider(node.kind, node.params);
        });
  }

  /// Columns the static area needs: every distinct kind an FpgaStatic
  /// operator can execute stays resident for the whole run.
  void collect_static_reserve() {
    const auto& arch = project_.architecture;
    std::set<std::string> kinds;
    for (aaa::NodeId n : arch.operators_of_kind(aaa::OperatorKind::FpgaStatic)) {
      const aaa::OperatorNode& op = arch.op(n);
      project_.algorithm.digraph().for_each_live_node(
          [&](graph::NodeId, const aaa::Operation& node) {
            const auto consider = [&](const std::string& kind, const synth::Params& params) {
              if (!project_.durations.supports(kind, op)) return;
              if (!kinds.insert(kind).second) return;
              if (const auto usage = usage_of(kind, params, /*wrap=*/false))
                static_cols_ += synth::columns_needed(*usage, device_);
            };
            for (const auto& alt : node.alternatives) consider(alt.kind, alt.params);
            if (!node.conditioned()) consider(node.kind, node.params);
          });
    }
  }

  const aaa::Project& project_;
  const PlanOptions& options_;
  aaa::Adequation adequation_;
  fabric::PortTiming icap_;
  fabric::DeviceModel device_;
  std::vector<RegionDemand> demands_;
  int static_cols_ = 0;
  int evaluated_ = 0;
  int scheduled_ = 0;
  std::map<std::map<std::string, TimeNs>, std::optional<Outcome>> outcomes_;
};

/// The candidate moves of the local search, one region at a time.
enum class Move : std::uint8_t { Widen, Narrow, ShiftLeft, ShiftRight };

std::vector<Span> apply_move(const std::vector<Span>& spans, std::size_t region, Move move) {
  std::vector<Span> next = spans;
  Span& s = next[region];
  switch (move) {
    case Move::Widen: s.width += 1; s.col_lo -= 1; break;  // grow into the static side
    case Move::Narrow: s.width -= 1; s.col_lo += 1; break;
    case Move::ShiftLeft: s.col_lo -= 1; break;
    case Move::ShiftRight: s.col_lo += 1; break;
  }
  return next;
}

}  // namespace

std::map<std::string, TimeNs> PlanResult::region_load_ns() const {
  std::map<std::string, TimeNs> out;
  for (const auto& r : regions) out[r.name] = r.load_ns;
  return out;
}

std::string PlanResult::constraints_fragment() const {
  std::string out;
  for (const auto& r : regions) {
    out += "region " + r.name + " {\n";
    out += strprintf("  width %d          # planned: cols [%d, %d], %d slice-columns, %.3f ms "
                     "load\n",
                     r.width.value, r.col_lo, r.col_hi,
                     fabric::to_slice_cols(r.width).value,
                     static_cast<double>(r.load_ns) / 1e6);
    out += "}\n";
  }
  return out;
}

std::string PlanResult::to_string() const {
  fabric::Floorplan plan(device);
  for (const auto& r : fabric_regions)
    plan.add_region(r.name, r.col_lo, r.col_hi, r.reconfigurable);
  std::string out = "floorplan (" + device.name + ", " + std::to_string(device.clb_cols) +
                    " CLB columns, " + std::to_string(static_cols_reserved) +
                    " reserved for statics):\n";
  out += plan.render();
  for (const auto& r : regions)
    out += strprintf(
        "  %s: cols [%d, %d] (%d CLB cols = %d slice-cols, worst variant %d), %llu payload "
        "bytes, load %.3f ms\n",
        r.name.c_str(), r.col_lo, r.col_hi, r.width.value, fabric::to_slice_cols(r.width).value,
        r.worst_variant_cols, static_cast<unsigned long long>(r.payload_bytes),
        static_cast<double>(r.load_ns) / 1e6);
  out += strprintf("  makespan %.3f ms, reconfig exposed %.3f ms (%d rounds, %d schedules)\n",
                   static_cast<double>(makespan) / 1e6,
                   static_cast<double>(reconfig_exposed) / 1e6, rounds, evaluated);
  out += lint.errors() == 0 ? "  lint: PDR020-025 clean\n"
                            : "  lint: " + std::to_string(lint.errors()) + " error(s)\n";
  out += certified ? "  verify: certified race-free\n"
                   : "  verify: REJECTED: " + certificate_error + "\n";
  return out;
}

namespace {

/// The seeded hill climb of plan_floorplan, on a caller-owned planner.
PlanResult search(Planner& planner, const PlanOptions& options) {
  // Start from the worst-variant widths (plus margin), packed right.
  std::vector<int> widths;
  for (const auto& d : planner.demands())
    widths.push_back(std::max(d.worst_cols + options.margin_cols, fabric::kMinReconfigClbCols));
  std::vector<Span> best_spans = planner.pack_right(widths);
  Evaluation best = planner.evaluate(best_spans);

  // First-improvement hill climb over {widen, narrow, shift} moves in a
  // seeded order. Serial by construction — the determinism contract is
  // "same seed, same plan" at any --jobs.
  Rng rng(options.seed);
  int rounds = 0;
  while (rounds < options.max_rounds) {
    ++rounds;
    std::vector<std::pair<std::size_t, Move>> moves;
    for (std::size_t i = 0; i < best_spans.size(); ++i)
      for (const Move m : {Move::Widen, Move::Narrow, Move::ShiftLeft, Move::ShiftRight})
        moves.emplace_back(i, m);
    shuffle(moves, rng);
    bool improved = false;
    for (const auto& [region, move] : moves) {
      const std::vector<Span> next = apply_move(best_spans, region, move);
      const RegionDemand& d = planner.demands()[region];
      if (next[region].width <
          std::max(d.worst_cols, fabric::kMinReconfigClbCols))
        continue;  // capacity floor (the PDR024 analog) before any pricing
      if (next[region].col_lo < 0 || next[region].col_hi() >= planner.device().clb_cols)
        continue;
      Evaluation ev = planner.evaluate(next);
      if (!ev.feasible) continue;
      if (!best.feasible || better(ev, best, next, best_spans)) {
        best_spans = next;
        best = std::move(ev);
        improved = true;
      }
    }
    if (!improved && best.feasible) break;
    if (!improved && !best.feasible)
      break;  // nothing reachable from an infeasible start; finish() throws
  }
  return planner.finish(std::move(best), rounds);
}

/// plan_fixed on a caller-owned planner.
PlanResult fixed(Planner& planner, const std::map<std::string, int>& width_cols) {
  std::vector<int> widths;
  for (const auto& d : planner.demands()) {
    const auto it = width_cols.find(d.name);
    PDR_CHECK(it != width_cols.end(), "plan_fixed",
              "no width given for region operator '" + d.name + "'");
    widths.push_back(it->second);
  }
  return planner.finish(planner.evaluate(planner.pack_right(widths)), 0);
}

}  // namespace

PlanResult plan_floorplan(const aaa::Project& project, const PlanOptions& options) {
  Planner planner(project, options);
  return search(planner, options);
}

PlanResult plan_fixed(const aaa::Project& project, const std::map<std::string, int>& width_cols,
                      const PlanOptions& options) {
  Planner planner(project, options);
  return fixed(planner, width_cols);
}

std::vector<aaa::FloorplanChoice> floorplan_axis(const aaa::Project& project,
                                                 const PlanOptions& options,
                                                 std::size_t max_choices) {
  std::vector<aaa::FloorplanChoice> choices;
  if (max_choices == 0) return choices;
  // One planner for the plan and its alternates, so they share its
  // priced tables (the alternates' counts, cumulative, go unused).
  Planner planner(project, options);
  const PlanResult best = search(planner, options);
  choices.push_back(aaa::FloorplanChoice{"plan", best.region_load_ns()});

  // Alternates: every region uniformly widened by k columns, re-packed and
  // re-priced; infeasible widenings are skipped. These trade schedule time
  // for slack (bigger regions host bigger future variants), which is
  // exactly the kind of choice a Pareto front should expose.
  for (std::size_t k = 1; choices.size() < max_choices; ++k) {
    std::map<std::string, int> widths;
    for (const auto& r : best.regions) widths[r.name] = r.width.value + static_cast<int>(k);
    try {
      const PlanResult alt = fixed(planner, widths);
      choices.push_back(
          aaa::FloorplanChoice{strprintf("plan+%zuc", k), alt.region_load_ns()});
    } catch (const Error&) {
      break;  // ran out of device; wider still would fail too
    }
  }
  return choices;
}

}  // namespace pdr::plan
