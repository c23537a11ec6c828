// Multiple dynamic parts (paper §7: "complex design and architecture can
// support more than one dynamic part").
//
// Extends the case study with a second reconfigurable region: D1 keeps
// the adaptive modulation (qpsk / qam16), D2 hosts the channel coder
// (rate-1/2 vs punctured rate-3/4 convolutional encoder variants). Both
// regions share the single ICAP, so simultaneous reconfigurations
// serialize on the configuration port — exactly the resource conflict the
// adequation and the runtime manager must handle.

#include <cstdio>

#include "aaa/adequation.hpp"
#include "flow/pipeline.hpp"
#include "mccdma/case_study.hpp"
#include "mccdma/flow_presets.hpp"
#include "rtr/manager.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace pdr;
using namespace pdr::literals;

namespace {

const char* kConstraints = R"(
device XC2V2000
port icap
manager fpga
builder fpga
prefetch history

region D1 { width 5 }
region D2 { width 3 }

dynamic qpsk   { region D1  kind qpsk_mapper   load startup }
dynamic qam16  { region D1  kind qam16_mapper }
dynamic rate12 { region D2  kind conv_encoder  param k 7  load startup }
dynamic rate34 { region D2  kind conv_encoder  param k 9 }

exclude qpsk qam16
exclude rate12 rate34
relation qpsk then qam16
relation qam16 then qpsk
relation rate12 then rate34
relation rate34 then rate12
)";

}  // namespace

int main() {
  const aaa::ConstraintSet constraints = aaa::parse_constraints(kConstraints);
  // The Synth stage through the flow pipeline: parsed + linted + built
  // once, then served from the process-wide artifact cache. bundle()'s
  // lint gate refuses a set with design-rule errors before `constraints`
  // is used.
  flow::Pipeline pipeline =
      mccdma::constraints_pipeline(kConstraints, {{"ifft", "ifft", {{"n", 64}}},
                                                  {"iface", "interface_in_out", {}},
                                                  {"cfg", "config_manager", {}},
                                                  {"pb", "protocol_builder", {}}});
  const std::shared_ptr<const synth::DesignBundle> bundle_ptr = pipeline.bundle();
  const synth::DesignBundle& bundle = *bundle_ptr;

  std::puts("=== floorplan with two dynamic parts ===");
  std::fputs(bundle.floorplan.render().c_str(), stdout);
  printf("D1: %.1f%% of device, D2: %.1f%%\n\n",
         100.0 * bundle.floorplan.region_fraction("D1"),
         100.0 * bundle.floorplan.region_fraction("D2"));

  // --- adequation with two regions -------------------------------------
  aaa::AlgorithmGraph algo;
  algo.add_sensor("src");
  algo.add_conditioned("coder", {{"rate12", "conv_encoder", {{"k", 7}}},
                                 {"rate34", "conv_encoder", {{"k", 9}}}});
  algo.add_conditioned("modulation",
                       {{"qpsk", "qpsk_mapper", {}}, {"qam16", "qam16_mapper", {}}});
  algo.add_compute("ifft", "ifft", {{"n", 64}});
  algo.add_actuator("out");
  algo.add_dependency("src", "coder", 16);
  algo.add_dependency("coder", "modulation", 32);
  algo.add_dependency("modulation", "ifft", 64);
  algo.add_dependency("ifft", "out", 256);

  aaa::ArchitectureGraph arch = aaa::make_sundance_architecture();
  arch.add_operator(aaa::OperatorNode{"D2", aaa::OperatorKind::FpgaRegion, 1.0, "XC2V2000", "D2"});
  arch.connect("D2", "LIO");

  const aaa::DurationTable durations = aaa::mccdma_durations();
  aaa::Adequation adequation(algo, arch, durations);
  adequation.apply_constraints(constraints);  // pins coder->D2, modulation->D1
  rtr::BitstreamStore cost_store = mccdma::make_case_study_store();
  aaa::AdequationOptions options;
  options.reconfig_cost = [&bundle](const std::string& region, const std::string& module) {
    return mccdma::kCaseStudyStoreLatency +
           transfer_time_ns(bundle.variant(region, module).bitstream.size(),
                            mccdma::kCaseStudyStoreBandwidth);
  };
  const aaa::Schedule schedule = adequation.run(options);
  aaa::validate_schedule(schedule, algo, arch);
  std::puts("=== adequation with D1 + D2 (reconfigurations serialize on ICAP) ===");
  std::fputs(schedule.to_string().c_str(), stdout);
  std::fputs(schedule.gantt().c_str(), stdout);

  // --- runtime: two regions contending for one port ----------------------
  std::puts("\n=== runtime manager: simultaneous demands on D1 and D2 ===");
  rtr::BitstreamStore store = mccdma::make_case_study_store();
  rtr::HistoryPredictor policy(constraints);
  rtr::ReconfigManager manager(bundle, rtr::sundance_manager_config(), store, policy);
  manager.set_resident("D1", "qpsk");    // load startup
  manager.set_resident("D2", "rate12");  // load startup

  const auto d1 = manager.request("D1", "qam16", 0);
  const auto d2 = manager.request("D2", "rate34", 0);
  Table t({"region", "module", "kind", "ready at (ms)", "stall (ms)"});
  t.row().add("D1").add("qam16").add(rtr::request_kind_name(d1.kind)).add(to_ms(d1.ready_at), 2)
      .add(to_ms(d1.stall), 2);
  t.row().add("D2").add("rate34").add(rtr::request_kind_name(d2.kind)).add(to_ms(d2.ready_at), 2)
      .add(to_ms(d2.stall), 2);
  t.print();
  std::puts("(D2 waits for D1's load: one ICAP, serialized configuration)");

  // History prefetch now predicts the way back.
  manager.auto_prefetch("D1", d2.ready_at);
  manager.auto_prefetch("D2", d2.ready_at);
  const auto back1 = manager.request("D1", "qpsk", d2.ready_at + 10_ms);
  const auto back2 = manager.request("D2", "rate12", d2.ready_at + 20_ms);
  printf("\nafter history prefetch: D1 back to qpsk = %s (stall %.2f ms), "
         "D2 back to rate12 = %s (stall %.2f ms)\n",
         rtr::request_kind_name(back1.kind), to_ms(back1.stall),
         rtr::request_kind_name(back2.kind), to_ms(back2.stall));
  return 0;
}
