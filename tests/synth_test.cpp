#include <gtest/gtest.h>

#include "fabric/bitstream.hpp"
#include "synth/elaborate.hpp"
#include "synth/flow.hpp"
#include "synth/map.hpp"
#include "synth/place.hpp"
#include "util/error.hpp"

namespace pdr::synth {
namespace {

using fabric::xc2v1000;
using fabric::xc2v2000;

// --- elaborate -------------------------------------------------------------------

class ElaborateKindTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ElaborateKindTest, ProducesNonEmptyNetlistWithPorts) {
  const netlist::Netlist n = elaborate_operator(GetParam());
  EXPECT_GT(n.total_primitives(), 0) << GetParam();
  EXPECT_FALSE(n.ports().empty()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ElaborateKindTest,
                         ::testing::ValuesIn(known_operator_kinds()));

TEST(Elaborate, UnknownKindThrows) { EXPECT_THROW(elaborate_operator("warp_drive"), pdr::Error); }

TEST(Elaborate, BadParamThrows) {
  EXPECT_THROW(elaborate_operator("ifft", {{"n", 48}}), pdr::Error);   // not a power of 2
  EXPECT_THROW(elaborate_operator("ifft", {{"n", -64}}), pdr::Error);  // negative
  EXPECT_THROW(elaborate_operator("cyclic_prefix", {{"n", 64}, {"cp", 64}}), pdr::Error);
}

TEST(Elaborate, IfftScalesWithSize) {
  const auto small = map_netlist(elaborate_operator("ifft", {{"n", 16}}));
  const auto big = map_netlist(elaborate_operator("ifft", {{"n", 256}}));
  EXPECT_GT(big.slices, small.slices);
  EXPECT_GT(big.mults, small.mults);
}

TEST(Elaborate, Qam16BiggerThanQpsk) {
  const auto qpsk = map_netlist(elaborate_operator("qpsk_mapper"));
  const auto qam16 = map_netlist(elaborate_operator("qam16_mapper"));
  const auto qam64 = map_netlist(elaborate_operator("qam64_mapper"));
  EXPECT_GT(qam16.slices, qpsk.slices);
  EXPECT_GT(qam64.slices, qam16.slices);
}

TEST(Elaborate, ModulationKindHelpers) {
  EXPECT_TRUE(is_modulation_kind("qpsk_mapper"));
  EXPECT_FALSE(is_modulation_kind("ifft"));
  EXPECT_EQ(modulation_bits_per_symbol("qpsk_mapper"), 2);
  EXPECT_EQ(modulation_bits_per_symbol("qam16_mapper"), 4);
  EXPECT_THROW(modulation_bits_per_symbol("ifft"), pdr::Error);
}

TEST(Elaborate, CustomKindUsesParams) {
  const auto n = elaborate_operator("custom", {{"luts", 100}, {"ffs", 50}, {"brams", 2}});
  EXPECT_EQ(n.count(netlist::PrimitiveKind::Lut4), 100);
  EXPECT_EQ(n.count(netlist::PrimitiveKind::FlipFlop), 50);
  EXPECT_EQ(n.count(netlist::PrimitiveKind::Bram18), 2);
}

TEST(Elaborate, WrapExecutiveAddsOverheadAndHandshake) {
  const netlist::Netlist bare = elaborate_operator("qpsk_mapper");
  const netlist::Netlist wrapped = wrap_executive(bare);
  EXPECT_GT(map_netlist(wrapped).slices, map_netlist(bare).slices);
  EXPECT_GT(wrapped.input_bits(), bare.input_bits());  // hs_req + in_reconf
  // The wrapper must not require BRAM (regions may lack BRAM columns).
  EXPECT_EQ(wrapped.count(netlist::PrimitiveKind::Bram18),
            bare.count(netlist::PrimitiveKind::Bram18));
}

// --- map --------------------------------------------------------------------------

TEST(Map, SlicePacking) {
  netlist::Netlist n("m");
  n.add(netlist::PrimitiveKind::Lut4, 16);
  n.add(netlist::PrimitiveKind::FlipFlop, 4);
  const ResourceUsage u = map_netlist(n);
  // 16 LUTs / 2 per slice / 0.8 packing = 10 slices.
  EXPECT_EQ(u.slices, 10);
  EXPECT_EQ(u.luts, 16);
  EXPECT_EQ(u.ffs, 4);
}

TEST(Map, FfBoundPacking) {
  netlist::Netlist n("m");
  n.add(netlist::PrimitiveKind::FlipFlop, 32);
  EXPECT_EQ(map_netlist(n).slices, 20);  // 32/2/0.8
}

TEST(Map, UsageAddition) {
  ResourceUsage a{10, 20, 10, 1, 2, 8};
  const ResourceUsage b{5, 4, 3, 2, 1, 0};
  a += b;
  EXPECT_EQ(a.slices, 15);
  EXPECT_EQ(a.brams, 3);
  EXPECT_EQ(a.tbufs, 8);
}

TEST(Map, UtilizationUsesScarcestResource) {
  const fabric::DeviceModel d = xc2v2000();
  ResourceUsage u;
  u.slices = d.total_slices() / 10;
  u.brams = d.total_brams() / 2;  // scarcer
  EXPECT_NEAR(utilization_percent(u, d), 50.0, 1.0);
}

TEST(Map, FitsChecksEveryDimension) {
  ResourceUsage u{100, 0, 0, 2, 1, 0};
  EXPECT_TRUE(fits(u, 100, 2, 1));
  EXPECT_FALSE(fits(u, 99, 2, 1));
  EXPECT_FALSE(fits(u, 100, 1, 1));
  EXPECT_FALSE(fits(u, 100, 2, 0));
}

TEST(Map, ColumnsNeeded) {
  const fabric::DeviceModel d = xc2v2000();  // 224 slices per column
  ResourceUsage u;
  u.slices = 1;
  EXPECT_EQ(columns_needed(u, d), 1);
  u.slices = 224;
  EXPECT_EQ(columns_needed(u, d), 1);
  u.slices = 225;
  EXPECT_EQ(columns_needed(u, d), 2);
}

TEST(Map, FitsRegionRespectsBramBudget) {
  fabric::Floorplan plan(xc2v2000());
  plan.add_region("edge", 43, 47, true, 8, 8);  // no BRAM columns inside
  ResourceUsage u;
  u.slices = 10;
  u.brams = 1;
  EXPECT_FALSE(fits_region(u, plan, "edge"));
  u.brams = 0;
  EXPECT_TRUE(fits_region(u, plan, "edge"));
}

// --- place -----------------------------------------------------------------------

TEST(Place, DynamicVariantCoversRegionAndChargesBusMacros) {
  fabric::Floorplan plan(xc2v2000());
  plan.add_region("D1", 43, 47, true, 16, 16);
  Placer placer(plan);
  const netlist::Netlist nl = wrap_executive(elaborate_operator("qpsk_mapper"));
  const PlacedModule p = placer.place_dynamic("qpsk", nl, "D1");
  EXPECT_EQ(p.region, "D1");
  EXPECT_EQ(p.col_lo, 43);
  EXPECT_EQ(p.col_hi, 47);
  EXPECT_EQ(p.frames.size(), plan.region_frames("D1").size());
  EXPECT_EQ(p.usage.tbufs,
            static_cast<int>(plan.region("D1").bus_macros.size()) * fabric::kBusMacroWidth);
}

TEST(Place, DynamicIntoStaticRegionRejected) {
  fabric::Floorplan plan(xc2v2000());
  plan.add_region("S", 0, 5, false);
  Placer placer(plan);
  EXPECT_THROW(placer.place_dynamic("x", elaborate_operator("qpsk_mapper"), "S"), pdr::Error);
}

TEST(Place, OversizedVariantRejected) {
  fabric::Floorplan plan(xc2v2000());
  plan.add_region("D1", 46, 47, true, 8, 8);  // 2 columns = 448 slices
  Placer placer(plan);
  const auto huge = elaborate_operator("custom", {{"luts", 4000}, {"ffs", 4000}});
  EXPECT_THROW(placer.place_dynamic("huge", huge, "D1"), pdr::Error);
}

TEST(Place, StaticFirstFitAllocatesDisjointColumns) {
  fabric::Floorplan plan(xc2v2000());
  plan.add_region("D1", 43, 47, true, 8, 8);
  Placer placer(plan);
  const int before = placer.free_static_columns();
  const PlacedModule a = placer.place_static(elaborate_operator("ifft", {{"n", 64}}));
  const PlacedModule b = placer.place_static(elaborate_operator("interleaver"));
  EXPECT_LT(a.col_hi, 43);
  EXPECT_TRUE(b.col_lo > a.col_hi || b.col_hi < a.col_lo);
  EXPECT_LT(placer.free_static_columns(), before);
}

TEST(Place, StaticExhaustionThrows) {
  fabric::Floorplan plan(xc2v1000());
  plan.add_region("D1", 2, 31, true, 8, 8);  // leave only columns 0..1
  Placer placer(plan);
  const auto big = elaborate_operator("custom", {{"luts", 3000}, {"ffs", 100}});
  EXPECT_THROW(placer.place_static(big), pdr::Error);
}

// --- flow -------------------------------------------------------------------------

TEST(Flow, EndToEndBundleInvariants) {
  ModularDesignFlow flow(xc2v2000());
  flow.add_static("ifft", "ifft", {{"n", 64}});
  flow.add_static("iface", "interface_in_out");
  flow.add_region("D1", {{"qpsk", "qpsk_mapper", {}}, {"qam16", "qam16_mapper", {}}});
  const DesignBundle bundle = flow.run();

  EXPECT_EQ(bundle.static_modules.size(), 2u);
  ASSERT_EQ(bundle.dynamic_variants.count("D1"), 1u);
  const auto& variants = bundle.dynamic_variants.at("D1");
  ASSERT_EQ(variants.size(), 2u);

  // All variants cover the same frames -> interchangeable bitstreams.
  EXPECT_EQ(variants[0].placement.frames.size(), variants[1].placement.frames.size());
  EXPECT_EQ(variants[0].bitstream.size(), variants[1].bitstream.size());
  EXPECT_NE(variants[0].bitstream, variants[1].bitstream);

  // Bitstreams validate against the device.
  for (const auto& v : variants)
    EXPECT_NO_THROW(fabric::ValidatedStream::parse(bundle.device, v.bitstream));
  EXPECT_NO_THROW(fabric::ValidatedStream::parse(bundle.device, bundle.initial_bitstream));

  // Report is filled.
  EXPECT_EQ(bundle.report.modules, 4);
  EXPECT_EQ(bundle.report.dynamic_variants, 2);
  EXPECT_GT(bundle.report.total_bitstream_bytes, 0u);
}

TEST(Flow, VariantLookup) {
  ModularDesignFlow flow(xc2v2000());
  flow.add_region("D1", {{"a", "qpsk_mapper", {}}, {"b", "qam16_mapper", {}}});
  const DesignBundle bundle = flow.run();
  EXPECT_EQ(bundle.variant("D1", "a").name, "a");
  EXPECT_EQ(bundle.variant_names("D1"), (std::vector<std::string>{"a", "b"}));
  EXPECT_THROW(bundle.variant("D1", "c"), pdr::Error);
  EXPECT_THROW(bundle.variant("D9", "a"), pdr::Error);
}

TEST(Flow, FixedWidthRespected) {
  ModularDesignFlow flow(xc2v2000());
  flow.add_region("D1", {{"qpsk", "qpsk_mapper", {}}}, 0, 5);
  const DesignBundle bundle = flow.run();
  EXPECT_EQ(bundle.floorplan.region("D1").width_cols(), 5);
}

TEST(Flow, FixedWidthTooSmallRejected) {
  ModularDesignFlow flow(xc2v2000());
  flow.add_region("big", {{"x", "custom", {{"luts", 3000}, {"ffs", 3000}}}}, 0, 2);
  EXPECT_THROW(flow.run(), pdr::Error);
}

TEST(Flow, TwoRegionsPackedFromRightEdge) {
  ModularDesignFlow flow(xc2v2000());
  flow.add_region("D1", {{"a", "qpsk_mapper", {}}});
  // LUT-only variant: edge regions contain no MULT/BRAM columns.
  flow.add_region("D2", {{"b", "custom", {{"luts", 200}, {"ffs", 100}}}});
  const DesignBundle bundle = flow.run();
  const auto& d1 = bundle.floorplan.region("D1");
  const auto& d2 = bundle.floorplan.region("D2");
  EXPECT_EQ(d1.col_hi, bundle.device.clb_cols - 1);
  EXPECT_EQ(d2.col_hi, d1.col_lo - 1);
}

TEST(Flow, StaticUsageAccumulates) {
  ModularDesignFlow flow(xc2v2000());
  flow.add_static("a", "scrambler");
  flow.add_static("b", "ifft", {{"n", 64}});
  flow.add_region("D1", {{"m", "qpsk_mapper", {}}});
  const DesignBundle bundle = flow.run();
  const ResourceUsage total = bundle.static_usage();
  EXPECT_EQ(total.slices,
            bundle.static_modules[0].usage.slices + bundle.static_modules[1].usage.slices);
}

TEST(Flow, EmptyRegionRejected) {
  ModularDesignFlow flow(xc2v2000());
  EXPECT_THROW(flow.add_region("D1", {}), pdr::Error);
}

// --- timing -----------------------------------------------------------------------

TEST(Timing, LogicLevelsGrowWithConeDepth) {
  netlist::Netlist shallow("s");
  shallow.add(netlist::PrimitiveKind::Lut4, 8);
  shallow.add(netlist::PrimitiveKind::FlipFlop, 8);
  netlist::Netlist deep("d");
  deep.add(netlist::PrimitiveKind::Lut4, 256);
  deep.add(netlist::PrimitiveKind::FlipFlop, 8);
  EXPECT_LT(estimate_logic_levels(shallow), estimate_logic_levels(deep));
}

TEST(Timing, PureRegistersHaveNoLogicLevels) {
  netlist::Netlist n("regs");
  n.add(netlist::PrimitiveKind::FlipFlop, 32);
  EXPECT_EQ(estimate_logic_levels(n), 0);
  const TimingEstimate est = estimate_timing(n);
  EXPECT_GT(est.fmax_mhz, 500.0);  // just clk-to-out + setup
}

TEST(Timing, BusMacroCrossingLowersFmax) {
  const netlist::Netlist nl = elaborate_operator("qam16_mapper");
  const TimingEstimate inside = estimate_timing(nl, TimingModel{}, false);
  const TimingEstimate crossing = estimate_timing(nl, TimingModel{}, true);
  EXPECT_LT(crossing.fmax_mhz, inside.fmax_mhz);
  EXPECT_GT(crossing.critical_path_ns, inside.critical_path_ns);
}

TEST(Timing, MultiplierPathDominatesWhenPresent) {
  netlist::Netlist n("mul");
  n.add(netlist::PrimitiveKind::Mult18, 1);
  n.add(netlist::PrimitiveKind::FlipFlop, 4);
  const TimingEstimate est = estimate_timing(n);
  const TimingModel model;
  EXPECT_GE(est.critical_path_ns, model.mult_delay_ns);
}

TEST(Timing, EstimatesInPlausibleFpgaRange) {
  // Every case-study operator should land between 20 and 700 MHz — the
  // plausible Virtex-II range.
  for (const auto& kind : known_operator_kinds()) {
    const TimingEstimate est = estimate_timing(elaborate_operator(kind));
    EXPECT_GT(est.fmax_mhz, 20.0) << kind;
    EXPECT_LT(est.fmax_mhz, 700.0) << kind;
  }
}

TEST(Timing, FlowFillsEstimates) {
  ModularDesignFlow flow(xc2v2000());
  flow.add_static("ifft", "ifft", {{"n", 64}});
  flow.add_region("D1", {{"qpsk", "qpsk_mapper", {}}});
  const DesignBundle bundle = flow.run();
  EXPECT_GT(bundle.static_modules[0].timing.fmax_mhz, 0.0);
  EXPECT_GT(bundle.variant("D1", "qpsk").timing.fmax_mhz, 0.0);
  // Dynamic variants pay the bus-macro crossing.
  const TimingEstimate bare = estimate_timing(wrap_executive(elaborate_operator("qpsk_mapper")));
  EXPECT_LT(bundle.variant("D1", "qpsk").timing.fmax_mhz, bare.fmax_mhz);
}

}  // namespace
}  // namespace pdr::synth
