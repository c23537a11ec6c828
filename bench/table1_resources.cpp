// Paper Table 1: "Fix-Dynamic modulation implementation comparison".
//
// Compares the FPGA resources of the modulation block implemented
//   - fixed, one modulation only (QPSK / QAM-16 columns),
//   - fixed, both modulations side by side with an output multiplexer,
//   - dynamically reconfigurable (Op_Dyn: the generated executive wrapper
//     around one mapper, plus bus macros, plus the shared configuration
//     manager and protocol builder in the static part).
//
// The paper's observations to reproduce:
//   (1) the dynamic scheme uses MORE resources than the fixed ones for
//       two modulations (generic generated structure overhead),
//   (2) "this gap is decreasing with the number of different
//       reconfigurations needed" — the variants sweep shows the fixed
//       area growing linearly while the dynamic area stays flat, with a
//       crossover.

#include <cstdio>

#include "mccdma/case_study.hpp"
#include "netlist/library.hpp"
#include "synth/elaborate.hpp"
#include "synth/flow.hpp"
#include "synth/map.hpp"
#include "util/arg_parser.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace pdr;

namespace {

synth::ResourceUsage usage_of(const std::string& kind, const synth::Params& params = {}) {
  return synth::map_netlist(synth::elaborate_operator(kind, params));
}

void print_table1() {
  const mccdma::CaseStudy cs = mccdma::build_case_study();
  const fabric::DeviceModel& dev = cs.bundle.device;

  const synth::ResourceUsage qpsk_fix = usage_of("qpsk_mapper");
  const synth::ResourceUsage qam16_fix = usage_of("qam16_mapper");
  synth::ResourceUsage both_fix = qpsk_fix + qam16_fix;
  both_fix += synth::map_netlist(netlist::make_mux(32, 2));  // I/Q output select

  // Dynamic scheme: the widest wrapped variant occupies the region; the
  // static side adds the configuration manager + protocol builder.
  const synth::ResourceUsage op_dyn = cs.bundle.variant("D1", "qam16").usage;
  synth::ResourceUsage dyn_total = op_dyn;
  dyn_total += usage_of("config_manager");
  dyn_total += usage_of("protocol_builder");

  const auto cost = mccdma::case_study_reconfig_cost(cs.bundle);

  std::puts("=== Table 1: Fix-Dynamic modulation implementation comparison ===");
  std::puts("(paper: XC2V2000; dynamic column includes generated executive");
  std::puts(" structure, bus macros, configuration manager and protocol builder)\n");
  Table t({"resource", "QPSK fix", "QAM-16 fix", "both fix + mux", "dynamic (Op_Dyn)"});
  t.row().add("slices").add(qpsk_fix.slices).add(qam16_fix.slices).add(both_fix.slices)
      .add(dyn_total.slices);
  t.row().add("4-input LUTs").add(qpsk_fix.luts).add(qam16_fix.luts).add(both_fix.luts)
      .add(dyn_total.luts);
  t.row().add("flip-flops").add(qpsk_fix.ffs).add(qam16_fix.ffs).add(both_fix.ffs)
      .add(dyn_total.ffs);
  t.row().add("BRAM18").add(qpsk_fix.brams).add(qam16_fix.brams).add(both_fix.brams)
      .add(dyn_total.brams);
  t.row().add("TBUF (bus macros)").add(qpsk_fix.tbufs).add(qam16_fix.tbufs).add(both_fix.tbufs)
      .add(dyn_total.tbufs);
  t.row()
      .add("device %")
      .add(synth::utilization_percent(qpsk_fix, dev), 2)
      .add(synth::utilization_percent(qam16_fix, dev), 2)
      .add(synth::utilization_percent(both_fix, dev), 2)
      .add(synth::utilization_percent(dyn_total, dev), 2);
  t.row().add("reconfig time (ms)").add(0).add(0).add(0).add(to_ms(cost("D1", "qam16")), 2);
  // Estimated post-synthesis fmax; the dynamic module pays the bus-macro
  // boundary crossing.
  const auto fmax = [](const std::string& kind, bool dynamic) {
    const netlist::Netlist nl =
        dynamic ? synth::wrap_executive(synth::elaborate_operator(kind))
                : synth::elaborate_operator(kind);
    return synth::estimate_timing(nl, synth::TimingModel{}, dynamic).fmax_mhz;
  };
  t.row()
      .add("est. fmax (MHz)")
      .add(fmax("qpsk_mapper", false), 0)
      .add(fmax("qam16_mapper", false), 0)
      .add(fmax("qam16_mapper", false), 0)
      .add(fmax("qam16_mapper", true), 0);
  t.print();

  std::printf("\npaper check (1): dynamic (%d slices) > fixed both (%d slices): %s\n",
              dyn_total.slices, both_fix.slices, dyn_total.slices > both_fix.slices ? "yes" : "NO");

  // --- variants sweep: "the gap is decreasing with the number of
  // different reconfigurations needed" -----------------------------------
  std::puts("\n=== variants sweep: fixed area grows linearly, dynamic stays flat ===\n");
  const std::vector<std::pair<std::string, std::string>> mods = {
      {"bpsk", "bpsk_mapper"},   {"qpsk", "qpsk_mapper"}, {"qam16", "qam16_mapper"},
      {"qam64", "qam64_mapper"},
  };
  Table sweep({"variants", "fixed total slices", "dynamic total slices", "dynamic/fixed"});
  int crossover = -1;
  for (std::size_t n = 1; n <= mods.size(); ++n) {
    synth::ResourceUsage fixed_total;
    synth::ResourceUsage widest;
    for (std::size_t i = 0; i < n; ++i) {
      const auto u = usage_of(mods[i].second);
      fixed_total += u;
      if (u.slices > widest.slices) widest = u;
    }
    if (n > 1) fixed_total += synth::map_netlist(netlist::make_mux(32, static_cast<int>(n)));

    // Dynamic: region sized by the widest wrapped variant (resources are
    // time-shared), plus the shared manager/builder overhead.
    const auto wrapped =
        synth::map_netlist(synth::wrap_executive(synth::elaborate_operator(
            mods[n - 1].second)));  // variants are ordered by size; last is widest
    synth::ResourceUsage dyn = wrapped;
    dyn.tbufs += 6 * fabric::kBusMacroWidth;
    dyn += usage_of("config_manager");
    dyn += usage_of("protocol_builder");

    sweep.row()
        .add(std::int64_t(n))
        .add(fixed_total.slices)
        .add(dyn.slices)
        .add(static_cast<double>(dyn.slices) / fixed_total.slices, 2);
    if (crossover < 0 && dyn.slices <= fixed_total.slices) crossover = static_cast<int>(n);
  }
  sweep.print();
  if (crossover > 0)
    std::printf("\npaper check (2): gap closes; dynamic wins from %d variants on\n", crossover);
  else
    std::puts("\npaper check (2): gap decreasing (no crossover within 4 variants)");
  std::puts("");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::ArgParser("table1_resources", argc - 1, argv + 1, {}, 0);  // takes no flags
    print_table1();
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "table1_resources: %s\n", e.what());
    return 1;
  }
}
