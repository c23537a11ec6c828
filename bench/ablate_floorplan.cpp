// Ablation B: the Modular Design placement rules (paper §5).
//
//  - Region width sweep: partial-bitstream size, device share and
//    reconfiguration time as the full-height region widens (the paper's
//    "minimal of four slices" rule is the left end).
//  - Bus-macro provisioning: macros (eight 3-state buffers each) needed
//    as the static<->dynamic interface widens, and the TBUF cost charged
//    to every variant.
//  - Device family sweep: the same 5-column module on different
//    Virtex-II parts (frame size grows with device height).
//
// The width and device sweeps run their rows as ScenarioRunner scenarios
// (parallel under --jobs N) writing index-owned row slots; tables render
// in row order afterwards, so output is identical for any --jobs value.

#include <cstdio>

#include "fabric/bus_macro.hpp"
#include "flow/scenario.hpp"
#include "mccdma/case_study.hpp"
#include "rtr/manager.hpp"
#include "synth/flow.hpp"
#include "util/arg_parser.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace pdr;

namespace {

/// One rendered row of the width/device sweeps, computed inside a
/// scenario body.
struct SweepRow {
  std::uint64_t slices = 0;
  std::uint64_t frame_bytes = 0;
  double fraction = 0;
  std::string partial;
  double cold_ms = 0;
  std::string full;
};

void print_width_sweep(const util::ArgParser& args, int jobs) {
  std::puts("=== region width sweep (XC2V2000, case-study memory) ===\n");
  const int widths[] = {2, 3, 4, 5, 6, 8, 12, 16, 24, 32};

  std::vector<SweepRow> slots(std::size(widths));
  std::vector<flow::Scenario> scenarios;
  for (std::size_t i = 0; i < std::size(widths); ++i) {
    scenarios.push_back(
        {strprintf("width=%d", widths[i]), [&widths, &slots, i](obs::Sinks sinks) {
           synth::ModularDesignFlow flow(fabric::xc2v2000());
           flow.set_sinks(sinks);
           flow.add_region("D1", {{"mod", "qam16_mapper", {}}}, 0, widths[i]);
           const synth::DesignBundle bundle = flow.run();
           rtr::BitstreamStore store = mccdma::make_case_study_store();
           rtr::NonePrefetch policy;
           rtr::ReconfigManager manager(bundle, rtr::sundance_manager_config(), store, policy);
           SweepRow& row = slots[i];
           row.slices = bundle.floorplan.region_slices("D1");
           row.fraction = bundle.floorplan.region_fraction("D1");
           row.partial = human_bytes(bundle.variant("D1", "mod").bitstream.size());
           row.cold_ms = to_ms(manager.cold_load_latency("mod"));
           return std::string();
         }});
  }
  const flow::SweepResult sweep = flow::ScenarioRunner(jobs).run(scenarios);

  Table t({"width (CLB cols)", "slice budget", "% of device", "partial bitstream",
           "cold reconfig (ms)"});
  for (std::size_t i = 0; i < std::size(widths); ++i) {
    t.row()
        .add(widths[i])
        .add(slots[i].slices)
        .add(100.0 * slots[i].fraction, 1)
        .add(slots[i].partial)
        .add(slots[i].cold_ms, 2);
  }
  t.print();
  std::puts("\n(reconfiguration time scales linearly with region width: partial");
  std::puts(" bitstreams are full-height column sets)\n");
  sweep.recorder.write(args.string_or("--trace-out", ""), args.string_or("--metrics-out", ""));
}

void print_bus_macro_sweep() {
  std::puts("=== bus-macro provisioning vs. interface width ===\n");
  Table t({"signals crossing", "bus macros", "TBUFs", "% of device TBUFs"});
  const fabric::DeviceModel dev = fabric::xc2v2000();
  for (int signals : {1, 8, 16, 33, 64, 128, 256}) {
    const int macros = fabric::bus_macros_needed(signals);
    const int tbufs = macros * fabric::kBusMacroWidth;
    t.row()
        .add(signals)
        .add(macros)
        .add(tbufs)
        .add(100.0 * tbufs / dev.total_tbufs(), 2);
  }
  t.print();
  std::puts("");
}

void print_device_sweep(int jobs) {
  std::puts("=== device family sweep: same 5-column module on each part ===\n");
  const char* devices[] = {"XC2V1000", "XC2V2000", "XC2V3000", "XC2V6000"};

  std::vector<SweepRow> slots(std::size(devices));
  std::vector<flow::Scenario> scenarios;
  for (std::size_t i = 0; i < std::size(devices); ++i) {
    scenarios.push_back({devices[i], [&devices, &slots, i](obs::Sinks) {
                           synth::ModularDesignFlow flow(fabric::device_by_name(devices[i]));
                           flow.add_region("D1", {{"mod", "qam16_mapper", {}}}, 0, 5);
                           const synth::DesignBundle bundle = flow.run();
                           rtr::BitstreamStore store = mccdma::make_case_study_store();
                           rtr::NonePrefetch policy;
                           rtr::ReconfigManager manager(bundle, rtr::sundance_manager_config(),
                                                        store, policy);
                           SweepRow& row = slots[i];
                           row.slices = static_cast<std::uint64_t>(bundle.device.total_slices());
                           row.frame_bytes =
                               static_cast<std::uint64_t>(bundle.device.frame_bytes());
                           row.partial = human_bytes(bundle.variant("D1", "mod").bitstream.size());
                           row.cold_ms = to_ms(manager.cold_load_latency("mod"));
                           row.full = human_bytes(bundle.initial_bitstream.size());
                           return std::string();
                         }});
  }
  flow::ScenarioRunner(jobs).run(scenarios);

  Table t({"device", "slices", "frame bytes", "partial bitstream", "cold reconfig (ms)",
           "full bitstream"});
  for (std::size_t i = 0; i < std::size(devices); ++i) {
    t.row()
        .add(devices[i])
        .add(slots[i].slices)
        .add(slots[i].frame_bytes)
        .add(slots[i].partial)
        .add(slots[i].cold_ms, 2)
        .add(slots[i].full);
  }
  t.print();
  std::puts("\n(full-height frames mean taller devices pay more per column — the");
  std::puts(" Modular Design tax the paper's placement rules imply)\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args("ablate_floorplan", argc - 1, argv + 1,
                               {{"--trace-out", true}, {"--metrics-out", true}, {"--jobs", true}},
                               0);
    const int jobs = static_cast<int>(args.uint_or("--jobs", 1));
    print_width_sweep(args, jobs);
    print_bus_macro_sweep();
    print_device_sweep(jobs);
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "ablate_floorplan: %s\n", e.what());
    return 1;
  }
}
