// Quickstart: model a small application and platform, run the adequation,
// and inspect the schedule and generated macro-code.
//
// The application is a 4-stage pipeline whose "filter" stage has two
// runtime-selectable implementations (the paper's conditioned vertex);
// the platform is an FPGA with a fixed part and one reconfigurable
// region, plus a processor, as in paper Figure 1.

#include <cstdio>
#include <iostream>

#include "aaa/adequation.hpp"
#include "aaa/algorithm_graph.hpp"
#include "aaa/architecture_graph.hpp"
#include "aaa/durations.hpp"
#include "aaa/macrocode.hpp"
#include "util/units.hpp"

using namespace pdr;
using namespace pdr::literals;

int main() {
  // --- 1. Algorithm graph: source -> filter(a|b) -> fft -> sink ---------
  aaa::AlgorithmGraph algo;
  algo.add_sensor("source", "bit_source");
  algo.add_conditioned("filter", {{"fir_short", "fir", {{"taps", 8}}},
                                  {"fir_long", "fir", {{"taps", 32}}}});
  algo.add_compute("transform", "ifft", {{"n", 64}});
  algo.add_actuator("sink", "interface_in_out");
  algo.add_dependency("source", "filter", 256);
  algo.add_dependency("filter", "transform", 256);
  algo.add_dependency("transform", "sink", 512);

  // --- 2. Architecture graph: DSP + FPGA(F1, D1) over two media ---------
  aaa::ArchitectureGraph arch = aaa::make_sundance_architecture();

  // --- 3. Durations + reconfiguration cost ------------------------------
  aaa::DurationTable durations = aaa::mccdma_durations();

  aaa::Adequation adequation(algo, arch, durations);
  // The filter's alternatives are dynamic modules sharing region D1 (what
  // the constraints file expresses for real designs).
  adequation.pin("filter", "D1");

  // --- 4. Run the adequation and show the result -------------------------
  std::puts("=== schedule (prefetch on, region initially empty) ===");
  aaa::AdequationOptions options;
  options.reconfig_cost = [](const std::string&, const std::string&) { return 2_ms; };
  options.selection["filter"] = "fir_long";
  const aaa::Schedule schedule = adequation.run(options);
  std::fputs(schedule.to_string().c_str(), stdout);
  std::puts("");
  std::fputs(schedule.gantt().c_str(), stdout);

  aaa::validate_schedule(schedule, algo, arch);
  std::puts("schedule invariants: OK");

  // --- 5. Macro-code (the synchronized executive) -----------------------
  std::puts("\n=== synchronized executive (macro-code) ===");
  const aaa::Executive executive = aaa::generate_executive(schedule, algo, arch);
  std::fputs(executive.to_string().c_str(), stdout);

  // --- 6. DOT exports for the two graphs ---------------------------------
  std::puts("=== graphviz (paste into dot -Tpng) ===");
  std::fputs(algo.to_dot().c_str(), stdout);
  std::fputs(arch.to_dot().c_str(), stdout);
  return 0;
}
