// The dynamic-constraints file.
//
// "A constraints file will contain the definition of each dynamic module
// and the associated constraints (loading, unloading, sharing area,
// dynamic relations, exclusion)." (§4)
//
// This module defines the in-memory ConstraintSet, a line-oriented DSL
// parser with precise error positions, and a writer that round-trips it.
// Example:
//
//   device XC2V2000
//   port icap            # icap | selectmap | jtag
//   manager fpga         # paper Fig.2 'M' placement: fpga | cpu
//   builder fpga         # paper Fig.2 'P' placement: fpga | cpu
//   prefetch schedule    # none | schedule | history
//
//   region D1 {
//     width auto         # CLB columns, or 'auto' (sized from variants)
//     margin 1
//   }
//
//   dynamic qpsk {
//     region D1
//     kind qpsk_mapper
//     load startup       # startup | on_demand
//     unload lazy        # lazy | eager
//   }
//
//   exclude qpsk qam16           # area sharing / mutual exclusion
//   relation qpsk then qam16     # dynamic relation: qam16 often follows
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "synth/elaborate.hpp"

namespace pdr::aaa {

enum class PortChoice : std::uint8_t { Icap, SelectMap, Jtag };
enum class Placement : std::uint8_t { Fpga, Cpu };
enum class PrefetchChoice : std::uint8_t { None, Schedule, History };
enum class LoadPolicy : std::uint8_t { Startup, OnDemand };
enum class UnloadPolicy : std::uint8_t { Lazy, Eager };

const char* to_keyword(PortChoice v);
const char* to_keyword(Placement v);
const char* to_keyword(PrefetchChoice v);
const char* to_keyword(LoadPolicy v);
const char* to_keyword(UnloadPolicy v);

/// Declaration of one reconfigurable region.
struct RegionConstraint {
  std::string name;
  int width = -1;  ///< CLB columns; -1 = auto (sized from widest variant)
  /// Width as authored, when the file used the slice-column form
  /// (`width Nsc`); -1 = authored in CLB columns or auto. When >= 0,
  /// `width` holds the CLB-column equivalent (rounded up); lint rule
  /// PDR021 rejects counts that are odd or below the paper's minimum of
  /// four before any flow consumes the rounded value.
  int width_slice_cols = -1;
  int margin = 0;  ///< extra CLB columns beyond the widest variant
  /// SEU-exposure budget in ms: the longest the region may go without a
  /// rewrite (scrub or reconfiguration) in its radiation environment;
  /// -1 = no budget. Checked against schedules by lint rule PDR048.
  int seu_budget_ms = -1;
};

/// Declaration of one dynamic module (a region variant).
struct ModuleConstraint {
  std::string name;
  std::string region;
  std::string kind;  ///< operator kind for elaboration
  synth::Params params;
  LoadPolicy load = LoadPolicy::OnDemand;
  UnloadPolicy unload = UnloadPolicy::Lazy;
};

struct ConstraintSet {
  std::string device = "XC2V2000";
  PortChoice port = PortChoice::Icap;
  Placement manager = Placement::Fpga;   ///< 'M' placement (paper Fig. 2)
  Placement builder = Placement::Fpga;   ///< 'P' placement (paper Fig. 2)
  PrefetchChoice prefetch = PrefetchChoice::Schedule;
  std::vector<RegionConstraint> regions;
  std::vector<ModuleConstraint> modules;
  /// Mutually exclusive module pairs (may not be resident simultaneously
  /// in different regions).
  std::vector<std::pair<std::string, std::string>> exclusions;
  /// Dynamic relations "a then b": after loading a, b is the likely next
  /// request (seeds the history predictor).
  std::vector<std::pair<std::string, std::string>> relations;

  const RegionConstraint* find_region(const std::string& name) const;
  const ModuleConstraint* find_module(const std::string& name) const;
  /// Modules declared for one region.
  std::vector<const ModuleConstraint*> modules_of(const std::string& region) const;
};

/// Parses the DSL; syntax errors throw with a "line N:" position. The set
/// comes back unchecked: lint::check_constraints reports its design-rule
/// violations and lint::validate_constraints refuses a set that has any.
ConstraintSet parse_constraints(const std::string& text);

/// Writes a ConstraintSet back to DSL text (parse(write(x)) == x).
std::string write_constraints(const ConstraintSet& set);

}  // namespace pdr::aaa
