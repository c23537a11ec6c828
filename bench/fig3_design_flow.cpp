// Paper Figure 3: "Complete Design Flow: SynDEx tool and Modular Design".
//
// We regenerate the flow itself (modelisation -> adequation -> VHDL/macro
// code generation -> Modular Design placement + bitstreams) and report
// what each stage costs as the number of dynamic modules grows — the
// figure's promise is that the whole chain is automatic, so its cost IS
// the tool runtime.

#include <cstdio>
#include <optional>

#include "aaa/adequation.hpp"
#include "aaa/codegen_vhdl.hpp"
#include "aaa/macrocode.hpp"
#include "mccdma/case_study.hpp"
#include "util/arg_parser.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace pdr;
using namespace pdr::literals;

namespace {

/// Flow input with `n_variants` dynamic modules in one region.
synth::ModularDesignFlow make_flow(int n_variants) {
  synth::ModularDesignFlow flow(fabric::xc2v2000());
  flow.add_static("ifft", "ifft", {{"n", 64}});
  flow.add_static("iface", "interface_in_out");
  flow.add_static("cfg", "config_manager");
  flow.add_static("pb", "protocol_builder");
  std::vector<synth::ModuleSpec> variants;
  for (int v = 0; v < n_variants; ++v) {
    variants.push_back(synth::ModuleSpec{
        "var" + std::to_string(v), "custom",
        {{"luts", 100 + 40 * v}, {"ffs", 80 + 20 * v}, {"in_bits", 16}, {"out_bits", 16}}});
  }
  flow.add_region("D1", std::move(variants));
  return flow;
}

void print_flow_stage_table() {
  std::puts("=== Figure 3: automatic flow cost per stage vs. dynamic module count ===\n");
  // Stage costs are wall-clock, so a single cold run would fold allocator
  // and page-cache warm-up into the smallest stages: discard one warm-up
  // run per point, then report the mean of repeated timed runs (the
  // BENCH_*.json harness applies the same warm-up/repeat discipline).
  constexpr int kRepeats = 3;
  Table t({"dyn modules", "elaborate (us)", "map (us)", "place (us)", "bitgen (ms)",
           "bitstreams", "region cols"});
  for (int n : {1, 2, 4, 8, 16}) {
    (void)make_flow(n).run();  // warm-up, untimed
    Stats elaborate_us;
    Stats map_us;
    Stats place_us;
    Stats bitgen_us;
    std::optional<synth::DesignBundle> bundle;
    for (int r = 0; r < kRepeats; ++r) {
      synth::ModularDesignFlow flow = make_flow(n);
      bundle = flow.run();
      elaborate_us.add(bundle->report.elaborate_us);
      map_us.add(bundle->report.map_us);
      place_us.add(bundle->report.place_us);
      bitgen_us.add(bundle->report.bitgen_us);
    }
    t.row()
        .add(n)
        .add(elaborate_us.mean(), 1)
        .add(map_us.mean(), 1)
        .add(place_us.mean(), 1)
        .add(bitgen_us.mean() / 1000.0, 2)
        .add(human_bytes(bundle->report.total_bitstream_bytes))
        .add(bundle->floorplan.region("D1").width_cols());
  }
  t.print();
  std::printf("\n(mean of %d runs after one discarded warm-up run per point;\n", kRepeats);
  std::puts(" bitstream generation dominates, as place & route + bitgen do in the");
  std::puts(" real Xilinx Modular Design back-end)\n");
}

void print_artifact_inventory() {
  std::puts("=== flow artifacts for the case study (what Figure 3's boxes emit) ===\n");
  const mccdma::CaseStudy cs = mccdma::build_case_study();
  aaa::Adequation adequation(cs.algorithm, cs.architecture, cs.durations);
  adequation.apply_constraints(cs.constraints);
  aaa::AdequationOptions options;
  options.reconfig_cost = mccdma::case_study_reconfig_cost(cs.bundle);
  options.preloaded["D1"] = "qpsk";
  const aaa::Schedule schedule = adequation.run(options);
  const aaa::Executive executive = aaa::generate_executive(schedule, cs.algorithm, cs.architecture);

  Table t({"artifact", "size"});
  t.row().add("constraints file").add(aaa::write_constraints(cs.constraints).size());
  t.row().add("schedule items").add(std::uint64_t{schedule.size()});
  std::size_t macro_instrs = 0;
  for (const auto& p : executive.programs) macro_instrs += p.body.size();
  t.row().add("macro instructions").add(std::uint64_t{macro_instrs});
  std::size_t vhdl_bytes = aaa::generate_vhdl_package().size();
  for (aaa::NodeId n : cs.architecture.operators()) {
    const aaa::OperatorNode& op = cs.architecture.op(n);
    if (op.kind != aaa::OperatorKind::Processor)
      vhdl_bytes += aaa::generate_vhdl_entity(executive.program(op.name), op).size();
  }
  t.row().add("generated VHDL bytes").add(std::uint64_t{vhdl_bytes});
  t.row().add("partial bitstreams").add(std::uint64_t{cs.bundle.dynamic_variants.at("D1").size()});
  t.row().add("initial full bitstream").add(human_bytes(cs.bundle.initial_bitstream.size()));
  t.print();
  std::puts("");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::ArgParser("fig3_design_flow", argc - 1, argv + 1, {}, 0);  // takes no flags
    print_flow_stage_table();
    print_artifact_inventory();
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "fig3_design_flow: %s\n", e.what());
    return 1;
  }
}
