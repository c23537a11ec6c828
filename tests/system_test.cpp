#include <gtest/gtest.h>

#include "mccdma/case_study.hpp"
#include "mccdma/system.hpp"
#include "util/units.hpp"

namespace pdr::mccdma {
namespace {

using namespace pdr::literals;

/// The case study is expensive to build (full bitstream generation), so
/// share one across tests.
const CaseStudy& case_study() {
  static const CaseStudy cs = build_case_study();
  return cs;
}

TEST(CaseStudy, ConstraintsParseAndMatchPaper) {
  const auto& cs = case_study();
  EXPECT_EQ(cs.constraints.device, "XC2V2000");
  EXPECT_EQ(cs.constraints.port, aaa::PortChoice::Icap);
  EXPECT_EQ(cs.constraints.modules.size(), 2u);
  EXPECT_NE(cs.constraints.find_module("qpsk"), nullptr);
  EXPECT_NE(cs.constraints.find_module("qam16"), nullptr);
  EXPECT_EQ(cs.constraints.exclusions.size(), 1u);
}

TEST(CaseStudy, RegionIsEightPercentOfDevice) {
  const auto& cs = case_study();
  // Paper: "the second one takes 8% of the FPGA".
  const double fraction = cs.bundle.floorplan.region_fraction("D1");
  EXPECT_NEAR(fraction, 0.08, 0.01);
}

TEST(CaseStudy, ReconfigurationTakesAboutFourMs) {
  const auto& cs = case_study();
  // Paper: "The reconfiguration time needed to reconfigure Op_Dyn takes
  // about 4ms".
  const auto cost = case_study_reconfig_cost(cs.bundle);
  EXPECT_NEAR(to_ms(cost("D1", "qpsk")), 4.0, 0.5);
  EXPECT_NEAR(to_ms(cost("D1", "qam16")), 4.0, 0.5);
}

TEST(CaseStudy, AlgorithmGraphMatchesFigure4) {
  const auto& cs = case_study();
  EXPECT_NO_THROW(cs.algorithm.validate());
  const auto& mod = cs.algorithm.op(cs.algorithm.by_name("modulation"));
  ASSERT_TRUE(mod.conditioned());
  EXPECT_EQ(mod.alternatives[0].name, "qpsk");
  EXPECT_EQ(mod.alternatives[1].name, "qam16");
  // All Figure-4 blocks present.
  for (const char* name : {"data_in", "scramble", "conv_code", "interleave", "modulation",
                           "spread", "ifft", "cyclic_prefix", "frame", "shb_out"})
    EXPECT_TRUE(cs.algorithm.find(name).has_value()) << name;
}

TEST(CaseStudy, DynamicSchemeCostsMoreThanSingleFixedMapper) {
  // Paper Table 1: resources are "more important with a dynamic
  // reconfiguration scheme" because of the generated generic structure.
  const auto& cs = case_study();
  const auto bare_qpsk = synth::map_netlist(synth::elaborate_operator("qpsk_mapper"));
  const auto& dyn_qpsk = cs.bundle.variant("D1", "qpsk").usage;
  EXPECT_GT(dyn_qpsk.slices, bare_qpsk.slices);
  EXPECT_GT(dyn_qpsk.tbufs, 0);  // bus macros
}

TEST(CaseStudy, AdequationPlacesChainOnFpga) {
  const auto& cs = case_study();
  aaa::Adequation adequation(cs.algorithm, cs.architecture, cs.durations);
  adequation.apply_constraints(cs.constraints);
  aaa::AdequationOptions options;
  options.reconfig_cost = case_study_reconfig_cost(cs.bundle);
  options.preloaded["D1"] = "qpsk";
  const aaa::Schedule schedule = adequation.run(options);
  aaa::validate_schedule(schedule, cs.algorithm, cs.architecture);
  // The modulation lands on the region; the heavy datapath on the FPGA.
  EXPECT_EQ(schedule.placement_name(cs.algorithm.by_name("modulation")), "D1");
  EXPECT_EQ(schedule.placement_name(cs.algorithm.by_name("ifft")), "F1");
  EXPECT_EQ(schedule.reconfig_count, 0);  // preloaded qpsk
}

TEST(System, RunsAndAccountsSymbols) {
  SystemConfig config;
  config.seed = 7;
  config.ber_sample_every = 0;  // timing only
  TransmitterSystem system(case_study(), config);
  const SystemReport r = system.run(2000);
  EXPECT_EQ(r.symbols, 2000u);
  EXPECT_GT(r.payload_bits, 0u);
  EXPECT_GE(r.elapsed, 2000 * case_study().params.symbol_duration());
  EXPECT_GT(r.throughput_bps(), 0.0);
}

TEST(System, PrefetchReducesStallVsOnDemand) {
  SystemConfig config;
  config.seed = 2006;
  config.ber_sample_every = 0;
  TransmitterSystem with_prefetch(case_study(), config);
  const SystemReport a = with_prefetch.run(20000);

  config.prefetch = aaa::PrefetchChoice::None;
  TransmitterSystem without_prefetch(case_study(), config);
  const SystemReport b = without_prefetch.run(20000);

  EXPECT_EQ(a.switches, b.switches);  // same SNR trace, same decisions
  EXPECT_GT(b.stall_total, 0);
  EXPECT_LT(a.stall_total, b.stall_total);
  EXPECT_GT(a.manager.prefetch_hits + a.manager.prefetch_inflight, 0);
  EXPECT_EQ(b.manager.prefetch_hits, 0);
  EXPECT_LE(a.elapsed, b.elapsed);
}

TEST(System, SwitchesMatchManagerActivity) {
  SystemConfig config;
  config.seed = 99;
  config.ber_sample_every = 0;
  TransmitterSystem system(case_study(), config);
  const SystemReport r = system.run(20000);
  // Every switch demanded a module. The initial qpsk is declared
  // `load startup` (shipped in the full bitstream), so it is not a
  // runtime request.
  EXPECT_EQ(r.manager.requests, r.switches);
}

TEST(System, StartupLoadPolicyAvoidsInitialStall) {
  SystemConfig config;
  config.seed = 123;
  config.ber_sample_every = 0;
  TransmitterSystem system(case_study(), config);
  // Run too short for any SNR switch: zero stall because qpsk shipped in
  // the initial bitstream.
  const SystemReport r = system.run(16);
  EXPECT_EQ(r.switches, 0);
  EXPECT_EQ(r.stall_total, 0);
  EXPECT_EQ(system.manager().loaded("D1"), "qpsk");
}

TEST(System, BerSaneUnderAdaptiveModulation) {
  SystemConfig config;
  config.seed = 3;
  config.ber_sample_every = 4;
  TransmitterSystem system(case_study(), config);
  const SystemReport r = system.run(4000);
  // The controller holds QAM-16 only at high SNR, so both BERs stay low.
  EXPECT_LT(r.ber_qpsk.ber(), 1e-2);
  EXPECT_LT(r.ber_qam16.ber(), 5e-2);
  EXPECT_GT(r.ber_qpsk.bits + r.ber_qam16.bits, 0u);
}

TEST(System, HistoryPolicyStagesAfterSwitches) {
  SystemConfig config;
  config.seed = 2006;
  config.prefetch = aaa::PrefetchChoice::History;
  config.ber_sample_every = 0;
  TransmitterSystem system(case_study(), config);
  const SystemReport r = system.run(30000);
  // With two modules, the Markov predictor stages the way back after
  // every switch: later switches become staged loads.
  EXPECT_GT(r.switches, 2);
  EXPECT_GT(r.manager.prefetch_hits + r.manager.prefetch_inflight, 0);
  EXPECT_LE(r.manager.misses, 1);  // only the first switch can miss
}

TEST(System, ScrubbingRunsAndKeepsResidencyVerified) {
  using namespace pdr::literals;
  SystemConfig config;
  config.seed = 8;
  config.ber_sample_every = 0;
  config.scrub_period = 10_ms;
  TransmitterSystem system(case_study(), config);
  const SystemReport r = system.run(20000);  // ~80 ms air time
  EXPECT_GT(r.manager.scrubs, 3);
  EXPECT_EQ(system.manager().verify_resident("D1"), 0);
  // Scrubbing may delay reconfigurations (port contention) but the run
  // completes with bounded stall.
  EXPECT_LT(r.stall_fraction(), 0.6);
}

TEST(System, DeterministicForSeed) {
  SystemConfig config;
  config.seed = 42;
  config.ber_sample_every = 0;
  TransmitterSystem a(case_study(), config);
  TransmitterSystem b(case_study(), config);
  const SystemReport ra = a.run(5000);
  const SystemReport rb = b.run(5000);
  EXPECT_EQ(ra.switches, rb.switches);
  EXPECT_EQ(ra.elapsed, rb.elapsed);
  EXPECT_EQ(ra.stall_total, rb.stall_total);
}

TEST(System, MultipathWithGenieEqualizerKeepsBerSane) {
  SystemConfig config;
  config.seed = 77;
  config.multipath = true;
  config.ber_sample_every = 4;
  TransmitterSystem system(case_study(), config);
  const SystemReport r = system.run(4000);
  EXPECT_EQ(r.pilots_sent, 0u);  // genie mode
  EXPECT_GT(r.ber_qpsk.bits + r.ber_qam16.bits, 0u);
  EXPECT_LT(r.ber_qpsk.ber(), 5e-2);
}

TEST(System, PilotsEstimateChannelAndCostAirtime) {
  SystemConfig config;
  config.seed = 78;
  config.multipath = true;
  config.pilot_every = 16;
  config.ber_sample_every = 4;
  TransmitterSystem system(case_study(), config);
  const SystemReport r = system.run(3200);
  EXPECT_EQ(r.pilots_sent, 3200u / 16u);
  // Air time covers data + pilots + stalls.
  EXPECT_EQ(r.elapsed, static_cast<TimeNs>(3200 + r.pilots_sent) *
                               case_study().params.symbol_duration() +
                           r.stall_total);
  // Estimated equalization keeps the link usable.
  EXPECT_LT(r.ber_qpsk.ber(), 8e-2);
}

TEST(System, StallFractionConsistent) {
  SystemConfig config;
  config.seed = 5;
  config.ber_sample_every = 0;
  TransmitterSystem system(case_study(), config);
  const SystemReport r = system.run(10000);
  EXPECT_NEAR(r.stall_fraction(),
              static_cast<double>(r.stall_total) / static_cast<double>(r.elapsed), 1e-12);
  EXPECT_EQ(r.elapsed, 10000 * case_study().params.symbol_duration() + r.stall_total);
}

}  // namespace
}  // namespace pdr::mccdma
