// pdr::plan — automatic slice-column floorplanner co-optimized with the
// adequation schedule.
//
// The paper's Modular Design flow (§5) hand-places each dynamic region as
// a full-height slice-column span; this module generates that placement
// automatically. Related PDR work (Chen et al., arXiv:1803.03748; Ding et
// al., arXiv:2212.05397) shows why placement cannot be a downstream step:
// region width decides frame count, frame count decides reconfiguration
// latency, and reconfiguration latency is exactly what the scheduler
// already optimizes around. The planner therefore closes the loop:
//
//   candidate span  ->  fabric::FrameMap frames  ->  per-region load time
//        ^                                                  |
//        +---------- seeded local search <---- adequation makespan
//
// Feasibility is delegated to the existing PDR020–025 lint rules
// (lint::check_floorplan) plus the fabric placement checks — the planner
// never invents its own legality model. The search is serial and seeded,
// so results are byte-identical at any --jobs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "aaa/adequation.hpp"
#include "aaa/explorer.hpp"
#include "aaa/project_io.hpp"
#include "fabric/device.hpp"
#include "fabric/floorplan.hpp"
#include "lint/diagnostic.hpp"
#include "util/units.hpp"

namespace pdr::plan {

struct PlanOptions {
  std::uint64_t seed = 17;     ///< local-search move-order seed
  int max_rounds = 64;         ///< whole-neighborhood improvement sweeps
  int margin_cols = 0;         ///< extra CLB columns beyond the worst variant
  /// Bitstream store pricing, matching the paper's external-memory path
  /// (mccdma::case_study_reconfig_cost uses the same chain).
  double store_bandwidth_bytes_per_s = 16.7e6;
  TimeNs store_latency_ns = 10'000;
  TimeNs manager_overhead_ns = 500;
  /// Scheduling options the objective runs with (default SynDEx list
  /// scheduling + prefetch, the paper's production configuration).
  aaa::AdequationOptions schedule_options;
  /// Reserve static-area columns for every kind the FpgaStatic operators
  /// can execute (the paper's static part must stay resident).
  bool reserve_static = true;
};

/// Final placement of one dynamic region.
struct RegionPlacement {
  std::string name;  ///< FpgaRegion operator name (= reconfig-cost key)
  int col_lo = 0;
  int col_hi = 0;
  fabric::ClbCols width{0};
  int worst_variant_cols = 0;    ///< widest supported variant, CLB columns
  int worst_variant_slices = 0;  ///< largest supported variant, slices
  int in_bits = 0;               ///< bus-macro demand entering the region
  int out_bits = 0;              ///< bus-macro demand leaving the region
  Bytes payload_bytes = 0;       ///< partial-bitstream frame payload
  TimeNs load_ns = 0;            ///< priced reconfiguration duration
};

struct PlanResult {
  fabric::DeviceModel device;
  std::vector<RegionPlacement> regions;       ///< architecture order
  std::vector<fabric::Region> fabric_regions; ///< with planned bus macros
  int static_cols_reserved = 0;  ///< CLB columns the static area needs
  int free_cols = 0;             ///< CLB columns left outside the regions

  TimeNs makespan = 0;          ///< adequation makespan under this plan
  TimeNs reconfig_exposed = 0;  ///< exposed reconfiguration time
  int rounds = 0;               ///< search rounds actually run
  int evaluated = 0;            ///< schedules evaluated by the search
  /// Adequation runs the planner made: one per distinct pricing table,
  /// failed runs included, plus one to certify each result. Not part of
  /// to_string().
  int scheduled = 0;

  lint::Report lint;             ///< PDR020–025 oracle verdict on the result
  bool certified = false;        ///< pdr::verify accepted the final schedule
  std::string certificate_error; ///< first verifier error when not certified

  /// Per-region reconfiguration durations, keyed like
  /// aaa::ReconfigCost's region argument.
  std::map<std::string, TimeNs> region_load_ns() const;

  /// Constraints-file fragment declaring the planned regions
  /// ("region D1 {\n  width 2\n}\n...") for merging into a project's
  /// constraints file.
  std::string constraints_fragment() const;

  /// Human-readable report: column map, per-region table, objective and
  /// certification lines. Deterministic (no timestamps).
  std::string to_string() const;
};

/// Plans every FpgaRegion operator of the project's architecture onto the
/// region operators' device grid (XC2V2000 when unspecified). Throws
/// pdr::Error when the project has no dynamic region or the device cannot
/// host the regions plus the static reserve.
PlanResult plan_floorplan(const aaa::Project& project, const PlanOptions& options = {});

/// Evaluates a fixed hand-written assignment of CLB-column widths
/// (region operator name -> width) without searching: regions are packed
/// against the right device edge in architecture order, priced and
/// scheduled exactly like plan_floorplan's candidates. Baseline hook for
/// "is the automatic plan at least as good as the constraints file?".
PlanResult plan_fixed(const aaa::Project& project, const std::map<std::string, int>& width_cols,
                      const PlanOptions& options = {});

/// Floorplan axis for the design-space explorer: the optimized plan plus
/// up to `max_choices - 1` feasible uniformly-widened alternates ("plan",
/// "plan+1c", ...), each priced through the same frames -> load-time
/// chain. Deterministic for a fixed (project, options).
std::vector<aaa::FloorplanChoice> floorplan_axis(const aaa::Project& project,
                                                 const PlanOptions& options = {},
                                                 std::size_t max_choices = 3);

}  // namespace pdr::plan
