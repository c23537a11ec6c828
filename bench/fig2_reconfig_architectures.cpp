// Paper Figure 2: "Different ways to reconfigure dynamic parts of a FPGA".
//
// The labels M (configuration manager) and P (protocol configuration
// builder) move between the FPGA's fixed part and the CPU; "locations of
// these functionalities have a direct impact on the reconfiguration
// latency". We regenerate that as latency tables:
//   - per scenario (a: standalone self-reconfiguration through ICAP,
//     b: processor-hosted through SelectMAP, plus intermediates and JTAG),
//   - per module size (region width sweep), showing how the ranking
//     holds as partial bitstreams grow,
//   - for two bitstream memories (the slow case-study flash and a fast
//     local SRAM), showing when the memory masks the M/P placement.

#include <cstdio>

#include "mccdma/case_study.hpp"
#include "rtr/manager.hpp"
#include "util/arg_parser.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace pdr;

namespace {

struct Scenario {
  const char* label;
  aaa::Placement manager;
  aaa::Placement builder;
  fabric::PortKind port;
};

const Scenario kScenarios[] = {
    {"a)  M=FPGA P=FPGA ICAP", aaa::Placement::Fpga, aaa::Placement::Fpga, fabric::PortKind::Icap},
    {"a') M=FPGA P=FPGA SelectMAP", aaa::Placement::Fpga, aaa::Placement::Fpga,
     fabric::PortKind::SelectMap},
    {"b)  M=CPU  P=CPU  SelectMAP", aaa::Placement::Cpu, aaa::Placement::Cpu,
     fabric::PortKind::SelectMap},
    {"b') M=CPU  P=FPGA SelectMAP", aaa::Placement::Cpu, aaa::Placement::Fpga,
     fabric::PortKind::SelectMap},
    {"c)  M=CPU  P=CPU  JTAG", aaa::Placement::Cpu, aaa::Placement::Cpu, fabric::PortKind::Jtag},
};

rtr::ManagerConfig config_of(const Scenario& s) {
  rtr::ManagerConfig cfg;
  cfg.manager = s.manager;
  cfg.builder = s.builder;
  cfg.port_kind = s.port;
  return cfg;
}

void print_scenario_table(const mccdma::CaseStudy& cs) {
  for (const bool fast_memory : {false, true}) {
    std::printf("=== Figure 2: cold reconfiguration latency of Op_Dyn (%s) ===\n\n",
                fast_memory ? "fast local SRAM, 200 MB/s" : "case-study memory, 16.7 MB/s");
    Table t({"scenario", "cold (ms)", "staged (ms)", "vs case a (x)"});
    double base = 0;
    for (const auto& s : kScenarios) {
      rtr::BitstreamStore store =
          fast_memory ? rtr::BitstreamStore(200e6, 1000) : mccdma::make_case_study_store();
      rtr::NonePrefetch policy;
      rtr::ReconfigManager manager(cs.bundle, config_of(s), store, policy);
      const double cold = to_ms(manager.cold_load_latency("qam16"));
      const double staged = to_ms(manager.staged_load_latency("qam16"));
      if (base == 0) base = cold;
      t.row().add(s.label).add(cold, 3).add(staged, 3).add(cold / base, 2);
    }
    t.print();
    std::puts("");
  }
}

void print_size_sweep() {
  std::puts("=== latency vs. module size (region width sweep, case-study memory) ===\n");
  Table t({"region cols", "% of device", "bitstream", "a) ICAP (ms)", "b) CPU SelectMAP (ms)",
           "c) JTAG (ms)"});
  for (int width : {2, 4, 5, 8, 12, 16, 24}) {
    synth::ModularDesignFlow flow(fabric::xc2v2000());
    flow.add_region("D1", {{"mod", "qam16_mapper", {}}}, 0, width);
    const synth::DesignBundle bundle = flow.run();
    const Bytes stream = bundle.variant("D1", "mod").bitstream.size();

    double per_port[3] = {0, 0, 0};
    const Scenario picks[3] = {kScenarios[0], kScenarios[2], kScenarios[4]};
    for (int i = 0; i < 3; ++i) {
      rtr::BitstreamStore store = mccdma::make_case_study_store();
      rtr::NonePrefetch policy;
      rtr::ReconfigManager manager(bundle, config_of(picks[i]), store, policy);
      per_port[i] = to_ms(manager.cold_load_latency("mod"));
    }
    t.row()
        .add(width)
        .add(100.0 * bundle.floorplan.region_fraction("D1"), 1)
        .add(human_bytes(stream))
        .add(per_port[0], 2)
        .add(per_port[1], 2)
        .add(per_port[2], 2);
  }
  t.print();
  std::puts("\n(the paper's Op_Dyn is the 5-column row: ~4 ms through case a)\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::ArgParser("fig2_reconfig_architectures", argc - 1, argv + 1, {}, 0);  // takes no flags
    const mccdma::CaseStudy cs = mccdma::build_case_study();
    print_scenario_table(cs);
    print_size_sweep();
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "fig2_reconfig_architectures: %s\n", e.what());
    return 1;
  }
}
