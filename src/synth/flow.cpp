#include "synth/flow.hpp"

#include <algorithm>
#include <chrono>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace pdr::synth {
namespace {

double elapsed_us(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - since).count();
}

}  // namespace

const ModuleArtifact& DesignBundle::variant(const std::string& region, const std::string& name) const {
  const auto it = dynamic_variants.find(region);
  PDR_CHECK(it != dynamic_variants.end(), "DesignBundle::variant", "unknown region '" + region + "'");
  for (const auto& v : it->second)
    if (v.name == name) return v;
  raise("DesignBundle::variant", "region '" + region + "' has no variant '" + name + "'");
}

std::vector<std::string> DesignBundle::variant_names(const std::string& region) const {
  const auto it = dynamic_variants.find(region);
  PDR_CHECK(it != dynamic_variants.end(), "DesignBundle::variant_names",
            "unknown region '" + region + "'");
  std::vector<std::string> out;
  for (const auto& v : it->second) out.push_back(v.name);
  return out;
}

ResourceUsage DesignBundle::static_usage() const {
  ResourceUsage u;
  for (const auto& m : static_modules) u += m.usage;
  return u;
}

ModularDesignFlow::ModularDesignFlow(fabric::DeviceModel device) : device_(std::move(device)) {}

ModularDesignFlow& ModularDesignFlow::add_static(const std::string& name, const std::string& kind,
                                                 const Params& params) {
  statics_.push_back(ModuleSpec{name, kind, params});
  return *this;
}

ModularDesignFlow& ModularDesignFlow::add_region(const std::string& region_name,
                                                 std::vector<ModuleSpec> variants, int margin_cols,
                                                 int fixed_width_cols) {
  PDR_CHECK(!variants.empty(), "ModularDesignFlow::add_region",
            "region '" + region_name + "' has no variants");
  PDR_CHECK(margin_cols >= 0, "ModularDesignFlow::add_region", "negative margin");
  regions_.push_back(RegionPlan{region_name, std::move(variants), margin_cols, fixed_width_cols});
  return *this;
}

DesignBundle ModularDesignFlow::run() {
  FlowReport report;

  // --- Elaborate + map every module (separate synthesis per module, §5).
  auto t0 = std::chrono::steady_clock::now();
  struct Built {
    netlist::Netlist nl;
    ResourceUsage usage;
  };
  std::vector<Built> static_built;
  static_built.reserve(statics_.size());
  for (const auto& spec : statics_) {
    netlist::Netlist nl = elaborate_operator(spec.kind, spec.params);
    static_built.push_back(Built{std::move(nl), ResourceUsage{}});
  }
  std::vector<std::vector<Built>> region_built(regions_.size());
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    for (const auto& spec : regions_[r].variants) {
      // Dynamic variants carry the generated executive structure around
      // their datapath (the paper's measured overhead of the dynamic
      // scheme).
      netlist::Netlist nl = wrap_executive(elaborate_operator(spec.kind, spec.params));
      region_built[r].push_back(Built{std::move(nl), ResourceUsage{}});
    }
  }
  report.elaborate_us = elapsed_us(t0);

  t0 = std::chrono::steady_clock::now();
  for (auto& b : static_built) b.usage = map_netlist(b.nl);
  for (auto& rb : region_built)
    for (auto& b : rb) b.usage = map_netlist(b.nl);
  report.map_us = elapsed_us(t0);

  // --- Floorplan: reconfigurable regions packed against the right edge,
  // sized by their widest variant.
  t0 = std::chrono::steady_clock::now();
  fabric::Floorplan plan(device_);
  int next_hi = device_.clb_cols - 1;
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    int width = fabric::kMinReconfigClbCols;
    int in_bits = 0;
    int out_bits = 0;
    for (const auto& b : region_built[r]) {
      width = std::max(width, columns_needed(b.usage, device_));
      in_bits = std::max(in_bits, b.nl.input_bits());
      out_bits = std::max(out_bits, b.nl.output_bits());
    }
    width += regions_[r].margin_cols;
    if (regions_[r].fixed_width_cols >= 0) {
      PDR_CHECK(regions_[r].fixed_width_cols >= width - regions_[r].margin_cols,
                "ModularDesignFlow",
                "fixed width of region '" + regions_[r].name + "' is below its widest variant");
      width = std::max(regions_[r].fixed_width_cols, fabric::kMinReconfigClbCols);
    }
    const int col_hi = next_hi;
    const int col_lo = col_hi - width + 1;
    PDR_CHECK(col_lo >= 0, "ModularDesignFlow",
              "device " + device_.name + " too narrow for region '" + regions_[r].name + "'");
    plan.add_region(regions_[r].name, col_lo, col_hi, /*reconfigurable=*/true, in_bits, out_bits);
    next_hi = col_lo - 1;
  }

  // --- Place.
  DesignBundle bundle{device_, plan, {}, {}, {}, {}, {}};
  Placer placer(bundle.floorplan);
  for (std::size_t i = 0; i < statics_.size(); ++i) {
    ModuleArtifact art;
    art.name = statics_[i].name;
    art.usage = static_built[i].usage;
    // Rename netlist-level module to the spec name for reporting clarity.
    art.placement = placer.place_static(static_built[i].nl);
    art.placement.name = statics_[i].name;
    art.netlist_hash = static_built[i].nl.content_hash();
    art.input_bits = static_built[i].nl.input_bits();
    art.output_bits = static_built[i].nl.output_bits();
    art.timing = estimate_timing(static_built[i].nl);
    bundle.static_modules.push_back(std::move(art));
  }
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    auto& variants = bundle.dynamic_variants[regions_[r].name];
    for (std::size_t v = 0; v < regions_[r].variants.size(); ++v) {
      ModuleArtifact art;
      art.name = regions_[r].variants[v].name;
      art.placement =
          placer.place_dynamic(art.name, region_built[r][v].nl, regions_[r].name);
      art.usage = art.placement.usage;  // includes bus-macro TBUFs
      art.netlist_hash = region_built[r][v].nl.content_hash();
      art.input_bits = region_built[r][v].nl.input_bits();
      art.output_bits = region_built[r][v].nl.output_bits();
      art.timing = estimate_timing(region_built[r][v].nl, TimingModel{},
                                   /*crosses_bus_macro=*/true);
      variants.push_back(std::move(art));
    }
  }
  report.place_us = elapsed_us(t0);

  // --- Bitstream generation: one partial bitstream per dynamic variant
  // plus the initial full-device configuration.
  t0 = std::chrono::steady_clock::now();
  std::uint64_t design_hash = 0x9e3779b97f4a7c15ull;
  for (const auto& m : bundle.static_modules) design_hash ^= m.netlist_hash;
  for (auto& [region, variants] : bundle.dynamic_variants) {
    for (auto& v : variants) {
      v.bitstream = generate_partial_bitstream(device_, v.placement.frames, v.netlist_hash);
      v.stream = fabric::ValidatedStream::parse(device_, v.bitstream);
      report.total_bitstream_bytes += v.bitstream.size();
      ++report.dynamic_variants;
    }
    // Blanking streams are MFWR-compressed: one zero frame + a 4-word
    // repeat per remaining frame, so eager unloading is cheap.
    bundle.blank_streams[region] = fabric::ValidatedStream::parse(
        device_, generate_uniform_bitstream(device_, bundle.floorplan.region_frames(region), 0));
  }
  bundle.initial_bitstream = generate_full_bitstream(device_, design_hash);
  report.total_bitstream_bytes += bundle.initial_bitstream.size();
  report.bitgen_us = elapsed_us(t0);

  report.modules = static_cast<int>(statics_.size()) + report.dynamic_variants;
  bundle.report = report;

  // Wall-clock stage spans, laid end to end from t = 0 (floorplanning is
  // folded into the place stage, matching FlowReport's buckets).
  auto us_to_ns = [](double us) { return static_cast<TimeNs>(us * 1e3); };
  TimeNs t = 0;
  const struct {
    const char* name;
    double us;
  } stages[] = {{"elaborate", report.elaborate_us},
                {"map", report.map_us},
                {"place", report.place_us},
                {"bitgen", report.bitgen_us}};
  for (const auto& stage : stages) {
    sinks_.span("flow", stage.name, "flow_stage", t, t + us_to_ns(stage.us));
    t += us_to_ns(stage.us);
  }
  sinks_.count("flow.runs");
  sinks_.count("flow.modules", report.modules);
  sinks_.count("flow.dynamic_variants", report.dynamic_variants);
  sinks_.count("flow.bitstream_bytes", static_cast<double>(report.total_bitstream_bytes));
  sinks_.gauge("flow.last_run_us",
               report.elaborate_us + report.map_us + report.place_us + report.bitgen_us);
  PDR_INFO("flow") << "built " << report.modules << " modules, "
                   << human_bytes(report.total_bitstream_bytes) << " of bitstreams";
  return bundle;
}

}  // namespace pdr::synth
