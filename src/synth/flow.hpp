// The Modular Design back-end flow (paper Figure 3, right column).
//
// Orchestrates, for a whole design: operator elaboration, technology
// mapping, floorplanning (sizing reconfigurable regions from their widest
// variant), placement and per-module bitstream generation. The result, a
// DesignBundle, is what the runtime reconfiguration manager and the
// simulator execute against.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fabric/floorplan.hpp"
#include "obs/sinks.hpp"
#include "synth/bitgen.hpp"
#include "synth/elaborate.hpp"
#include "synth/place.hpp"
#include "synth/timing.hpp"

namespace pdr::synth {

/// One module to build (operator kind + parameters).
struct ModuleSpec {
  std::string name;
  std::string kind;
  Params params;
};

/// Everything the flow produced for one module.
struct ModuleArtifact {
  std::string name;
  ResourceUsage usage;
  PlacedModule placement;
  std::vector<std::uint8_t> bitstream;  ///< partial bitstream for this module
  /// The partial bitstream, validated once for the bundle's device and
  /// shared by every store and manager that loads it (null for statics).
  std::shared_ptr<const fabric::ValidatedStream> stream;
  std::uint64_t netlist_hash = 0;
  int input_bits = 0;
  int output_bits = 0;
  TimingEstimate timing;  ///< pre-P&R static timing estimate
};

/// Flow stage wall-clock timings (microseconds) and artifact counts, for
/// the Figure-3 design-flow benchmark.
struct FlowReport {
  double elaborate_us = 0;
  double map_us = 0;
  double place_us = 0;
  double bitgen_us = 0;
  int modules = 0;
  int dynamic_variants = 0;
  Bytes total_bitstream_bytes = 0;
};

/// Complete flow output.
struct DesignBundle {
  fabric::DeviceModel device;
  fabric::Floorplan floorplan;
  std::vector<ModuleArtifact> static_modules;
  /// region name -> its interchangeable dynamic variants
  std::map<std::string, std::vector<ModuleArtifact>> dynamic_variants;
  std::vector<std::uint8_t> initial_bitstream;  ///< full-device initial load
  /// region name -> its MFWR-compressed blanking stream, validated once
  std::map<std::string, std::shared_ptr<const fabric::ValidatedStream>> blank_streams;
  FlowReport report;

  /// Artifact of a dynamic variant; throws if unknown.
  const ModuleArtifact& variant(const std::string& region, const std::string& name) const;
  /// All variant names of a region.
  std::vector<std::string> variant_names(const std::string& region) const;
  /// Sum of static-module resources.
  ResourceUsage static_usage() const;
};

class ModularDesignFlow {
 public:
  explicit ModularDesignFlow(fabric::DeviceModel device);

  /// Adds a module to the static area.
  ModularDesignFlow& add_static(const std::string& name, const std::string& kind,
                                const Params& params = {});

  /// Declares a reconfigurable region and its interchangeable variants.
  /// Region width = columns needed by the widest variant + `margin_cols`,
  /// clamped to the Modular Design minimum — unless `fixed_width_cols` is
  /// >= 0, which pins the width exactly (the flow still verifies every
  /// variant fits).
  ModularDesignFlow& add_region(const std::string& region_name, std::vector<ModuleSpec> variants,
                                int margin_cols = 0, int fixed_width_cols = -1);

  /// Records through `sinks`: run() emits one wall-clock span per flow
  /// stage (track "flow", category "flow_stage") and counters/gauges
  /// under "flow.".
  void set_sinks(obs::Sinks sinks) { sinks_ = sinks; }

  /// Runs elaborate -> map -> floorplan -> place -> bitgen. Throws
  /// pdr::Error if any module does not fit.
  DesignBundle run();

 private:
  obs::Sinks sinks_;
  fabric::DeviceModel device_;
  std::vector<ModuleSpec> statics_;
  struct RegionPlan {
    std::string name;
    std::vector<ModuleSpec> variants;
    int margin_cols = 0;
    int fixed_width_cols = -1;
  };
  std::vector<RegionPlan> regions_;
};

}  // namespace pdr::synth
