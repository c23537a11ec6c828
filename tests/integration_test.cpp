// Cross-module integration: the full paper flow from constraints text to
// executed executive and runtime reconfiguration, checking the pieces
// agree with each other.
#include <gtest/gtest.h>

#include "aaa/adequation.hpp"
#include "aaa/codegen_vhdl.hpp"
#include "aaa/macrocode.hpp"
#include "aaa/project_io.hpp"
#include "fabric/config_memory.hpp"
#include "fabric/config_port.hpp"
#include "flow/pipeline.hpp"
#include "mccdma/case_study.hpp"
#include "mccdma/flow_presets.hpp"
#include "mccdma/system.hpp"
#include "rtr/manager.hpp"
#include "sim/executive_player.hpp"
#include "util/units.hpp"

namespace pdr {
namespace {

using namespace pdr::literals;

// The process-wide case study: built once through the flow pipeline's
// cached Synth stage, shared with every preset and sweep scenario.
const mccdma::CaseStudy& case_study() { return mccdma::shared_case_study(); }

TEST(Integration, PipelinePresetServesCachedCaseStudyBundle) {
  const auto store = flow::default_store();
  flow::Pipeline first = mccdma::case_study_pipeline();
  const auto b1 = first.bundle();
  const std::uint64_t runs_after_first = store->runs(flow::stage::kSynth);

  // Assembling the preset again and asking for its bundle must not re-run
  // the Modular Design flow — identical inputs, the cached artifact.
  flow::Pipeline second = mccdma::case_study_pipeline();
  const auto b2 = second.bundle();
  EXPECT_EQ(store->runs(flow::stage::kSynth), runs_after_first);
  EXPECT_GE(store->hits(flow::stage::kSynth), 1u);
  EXPECT_EQ(b1.get(), b2.get());  // literally the same shared artifact
  EXPECT_EQ(b1->floorplan.region("D1").col_lo,
            case_study().bundle.floorplan.region("D1").col_lo);
}

TEST(Integration, ConstraintsRoundTripDrivesIdenticalFlow) {
  const auto& cs = case_study();
  // Re-parse the written constraints and rebuild the flow: same floorplan.
  const aaa::ConstraintSet reparsed = aaa::parse_constraints(aaa::write_constraints(cs.constraints));
  const synth::DesignBundle again = mccdma::run_flow_from_constraints(reparsed, {});
  EXPECT_EQ(again.floorplan.region("D1").col_lo, cs.bundle.floorplan.region("D1").col_lo);
  EXPECT_EQ(again.floorplan.region("D1").col_hi, cs.bundle.floorplan.region("D1").col_hi);
  // Identical variants -> identical bitstreams.
  EXPECT_EQ(again.variant("D1", "qpsk").bitstream, cs.bundle.variant("D1", "qpsk").bitstream);
}

TEST(Integration, ScheduleReconfigCostMatchesManagerColdLoad) {
  const auto& cs = case_study();
  rtr::BitstreamStore store = mccdma::make_case_study_store();
  rtr::NonePrefetch policy;
  rtr::ReconfigManager manager(cs.bundle, rtr::sundance_manager_config(), store, policy);

  const auto schedule_cost = mccdma::case_study_reconfig_cost(cs.bundle);
  // The adequation's cost model and the runtime manager agree within 1 %.
  const double a = static_cast<double>(schedule_cost("D1", "qam16"));
  const double b = static_cast<double>(manager.cold_load_latency("qam16"));
  EXPECT_NEAR(a, b, 0.01 * b);
}

TEST(Integration, ExecutivePlaysScheduleFaithfully) {
  const auto& cs = case_study();
  aaa::Adequation adequation(cs.algorithm, cs.architecture, cs.durations);
  adequation.apply_constraints(cs.constraints);
  aaa::AdequationOptions options;
  options.reconfig_cost = mccdma::case_study_reconfig_cost(cs.bundle);
  options.preloaded["D1"] = "qpsk";
  const aaa::Schedule schedule = adequation.run(options);
  aaa::validate_schedule(schedule, cs.algorithm, cs.architecture);

  const aaa::Executive executive = aaa::generate_executive(schedule, cs.algorithm, cs.architecture);
  sim::ExecutivePlayer player(executive, cs.architecture);
  const sim::PlayResult r = player.run(1);
  EXPECT_EQ(r.makespan, schedule.makespan);

  // Pipelined steady state is at least as fast per iteration.
  const sim::PlayResult r20 = player.run(20);
  EXPECT_LE(r20.iteration_period, schedule.makespan);
}

TEST(Integration, VhdlGeneratedForEveryFpgaOperator) {
  const auto& cs = case_study();
  aaa::Adequation adequation(cs.algorithm, cs.architecture, cs.durations);
  adequation.apply_constraints(cs.constraints);
  aaa::AdequationOptions options;
  options.preloaded["D1"] = "qpsk";
  const aaa::Schedule schedule = adequation.run(options);
  const aaa::Executive executive = aaa::generate_executive(schedule, cs.algorithm, cs.architecture);

  int fpga_entities = 0;
  for (aaa::NodeId n : cs.architecture.operators()) {
    const aaa::OperatorNode& op = cs.architecture.op(n);
    if (op.kind == aaa::OperatorKind::Processor) continue;
    const std::string vhdl = aaa::generate_vhdl_entity(executive.program(op.name), op);
    EXPECT_NE(vhdl.find("entity " + op.name), std::string::npos);
    ++fpga_entities;
  }
  EXPECT_EQ(fpga_entities, 2);  // F1 and D1
}

TEST(Integration, ManagerLoadsMatchFloorplanFrames) {
  const auto& cs = case_study();
  rtr::BitstreamStore store = mccdma::make_case_study_store();
  rtr::ScheduleLookahead policy;
  rtr::ReconfigManager manager(cs.bundle, rtr::sundance_manager_config(), store, policy);

  manager.request("D1", "qam16", 0);
  const auto& frames = cs.bundle.floorplan.region_frame_indices("D1");
  EXPECT_EQ(static_cast<int>(frames.size()),
            static_cast<int>(cs.bundle.variant("D1", "qam16").placement.frames.size()));
  EXPECT_TRUE(manager.memory().region_owned_by(frames, "qam16"));

  // Loading the other variant flips every frame's owner; no residue.
  manager.request("D1", "qpsk", 10_ms);
  EXPECT_TRUE(manager.memory().region_owned_by(frames, "qpsk"));

  // Switching qpsk -> qam16 leaves every resident frame as the store holds it.
  manager.request("D1", "qam16", 20_ms);
  EXPECT_EQ(manager.loaded("D1"), "qam16");
  EXPECT_EQ(manager.verify_resident("D1"), 0);

  // The case-study partial loads through a bare port into the same frames.
  fabric::ConfigMemory mem(cs.bundle.device);
  fabric::ConfigPort port(fabric::PortKind::Icap,
                          fabric::ConfigPort::default_timing(fabric::PortKind::Icap), mem);
  port.load(*fabric::ValidatedStream::parse(cs.bundle.device,
                                            cs.bundle.variant("D1", "qpsk").bitstream),
            "qpsk");
  EXPECT_TRUE(mem.region_owned_by(frames, "qpsk"));
}

TEST(Integration, StaticPrefetchAndRuntimePrefetchAgreeOnHiddenLatency) {
  // The schedule-level prefetch (adequation) and the runtime announce
  // mechanism (manager) model the same physics: hidden latency equals
  // reconfiguration time minus exposed stall.
  const auto& cs = case_study();
  aaa::Adequation adequation(cs.algorithm, cs.architecture, cs.durations);
  adequation.apply_constraints(cs.constraints);

  aaa::AdequationOptions with;
  with.reconfig_cost = mccdma::case_study_reconfig_cost(cs.bundle);
  with.prefetch = true;
  aaa::AdequationOptions without = with;
  without.prefetch = false;
  const aaa::Schedule sp = adequation.run(with);
  const aaa::Schedule sn = adequation.run(without);
  EXPECT_LE(sp.reconfig_exposed, sn.reconfig_exposed);
  EXPECT_EQ(sp.reconfig_total, sn.reconfig_total);
  EXPECT_LE(sp.makespan, sn.makespan);
}

TEST(Integration, CaseStudyRoundTripsThroughProjectFile) {
  // The case study's graphs + durations survive serialization to the
  // SynDEx-style project file, producing an identical schedule.
  const auto& cs = case_study();
  aaa::Project project{"mccdma_tx", cs.algorithm, cs.architecture, cs.durations};
  const aaa::Project back = aaa::parse_project(aaa::write_project(project));

  aaa::Adequation original(cs.algorithm, cs.architecture, cs.durations);
  aaa::Adequation reparsed(back.algorithm, back.architecture, back.durations);
  original.apply_constraints(cs.constraints);
  reparsed.apply_constraints(cs.constraints);
  aaa::AdequationOptions options;
  options.preloaded["D1"] = "qpsk";
  const aaa::Schedule sa = original.run(options);
  const aaa::Schedule sb = reparsed.run(options);
  EXPECT_EQ(sa.makespan, sb.makespan);
  EXPECT_EQ(sa.size(), sb.size());
  EXPECT_EQ(sa.to_csv(), sb.to_csv());
}

TEST(Integration, WholeSystemSmokeAtScale) {
  mccdma::SystemConfig config;
  config.seed = 1234;
  config.ber_sample_every = 16;
  mccdma::TransmitterSystem system(case_study(), config);
  const mccdma::SystemReport r = system.run(50'000);
  EXPECT_EQ(r.symbols, 50'000u);
  // ~0.2 s of air time.
  EXPECT_GT(r.elapsed, 150_ms);
  // Stall fraction bounded (switches are rare thanks to hysteresis).
  EXPECT_LT(r.stall_fraction(), 0.5);
  // The manager never loaded a module the store did not hold.
  EXPECT_GE(r.manager.requests, r.switches);
}

}  // namespace
}  // namespace pdr
