#include <gtest/gtest.h>

#include <optional>

#include "fabric/bus_macro.hpp"
#include "fabric/floorplan.hpp"
#include "util/error.hpp"

namespace pdr::fabric {
namespace {

TEST(BusMacro, NeededCountCeils) {
  EXPECT_EQ(bus_macros_needed(0), 0);
  EXPECT_EQ(bus_macros_needed(1), 1);
  EXPECT_EQ(bus_macros_needed(8), 1);
  EXPECT_EQ(bus_macros_needed(9), 2);
  EXPECT_EQ(bus_macros_needed(33), 5);
  EXPECT_THROW(bus_macros_needed(-1), pdr::Error);
}

TEST(BusMacro, PlanAssignsBandsAndDirections) {
  const auto macros = plan_bus_macros("D1", 10, 20, 9, 56, 48);
  // 20 in -> 3 macros, 9 out -> 2 macros.
  ASSERT_EQ(macros.size(), 5u);
  for (std::size_t i = 0; i < macros.size(); ++i) {
    EXPECT_EQ(macros[i].boundary_col, 10);
    EXPECT_EQ(macros[i].row_band, static_cast<int>(i));
  }
  EXPECT_EQ(macros[0].dir, BusMacroDir::LeftToRight);
  EXPECT_EQ(macros[4].dir, BusMacroDir::RightToLeft);
}

TEST(BusMacro, PlanRejectsOverflow) {
  EXPECT_THROW(plan_bus_macros("D1", 10, 100, 100, 3, 48), pdr::Error);
}

// A macro straddles boundary_col-1 | boundary_col; at the device edges one
// of those CLB columns does not exist, so planning there must throw
// instead of producing a bridge into thin air.
TEST(BusMacro, PlanRejectsDeviceEdgeBoundaries) {
  EXPECT_THROW(plan_bus_macros("D1", 0, 8, 8, 56, 48), pdr::Error);    // column -1
  EXPECT_THROW(plan_bus_macros("D1", 48, 8, 8, 56, 48), pdr::Error);   // column 48
  EXPECT_THROW(plan_bus_macros("D1", -3, 8, 8, 56, 48), pdr::Error);
  EXPECT_NO_THROW(plan_bus_macros("D1", 1, 8, 8, 56, 48));   // innermost legal boundaries
  EXPECT_NO_THROW(plan_bus_macros("D1", 47, 8, 8, 56, 48));
  try {
    plan_bus_macros("D1", 0, 8, 8, 56, 48);
    FAIL() << "edge boundary accepted";
  } catch (const pdr::Error& e) {
    // The witness names the nonexistent neighbor column.
    EXPECT_NE(std::string(e.what()).find("column -1 does not exist"), std::string::npos)
        << e.what();
  }
}

// --- width units ---------------------------------------------------------------

TEST(WidthUnits, ClbAndSliceColumnsConvertBothWays) {
  EXPECT_EQ(to_slice_cols(ClbCols{5}).value, 10);
  EXPECT_EQ(to_clb_cols(SliceCols{10}).value, 5);
  EXPECT_EQ(to_clb_cols(to_slice_cols(ClbCols{7})), ClbCols{7});
  // An odd slice-column count is not a whole number of CLB columns.
  EXPECT_THROW(to_clb_cols(SliceCols{3}), pdr::Error);
  EXPECT_THROW(to_clb_cols(SliceCols{5}), pdr::Error);
  static_assert(kMinReconfigSliceCols == kMinReconfigClbCols * kSliceColsPerClbCol);
}

TEST(WidthUnits, RegionTypedAccessorsAgreeWithLegacyInts) {
  Region r;
  r.col_lo = 10;
  r.col_hi = 14;
  EXPECT_EQ(r.width(), ClbCols{5});
  EXPECT_EQ(r.width_slices(), SliceCols{10});
  EXPECT_EQ(r.width_cols(), r.width().value);
  EXPECT_EQ(r.width_slice_cols(), r.width_slices().value);
}

TEST(Floorplan, AddRegionAndQuery) {
  Floorplan plan(xc2v2000());
  plan.add_region("S", 0, 9, false);
  plan.add_region("D1", 40, 47, true, 16, 16);
  EXPECT_EQ(plan.regions().size(), 2u);
  EXPECT_EQ(plan.region("D1").width_cols(), 8);
  EXPECT_TRUE(plan.region("D1").reconfigurable);
  EXPECT_EQ(plan.reconfigurable_regions().size(), 1u);
  EXPECT_EQ(plan.free_columns().size(), 48u - 10u - 8u);
}

TEST(Floorplan, RejectsOverlap) {
  Floorplan plan(xc2v2000());
  plan.add_region("A", 0, 9, false);
  EXPECT_THROW(plan.add_region("B", 5, 12, false), pdr::Error);
  EXPECT_THROW(plan.add_region("C", 9, 9, false), pdr::Error);
}

TEST(Floorplan, RejectsDuplicateName) {
  Floorplan plan(xc2v2000());
  plan.add_region("A", 0, 3, false);
  EXPECT_THROW(plan.add_region("A", 10, 13, false), pdr::Error);
}

TEST(Floorplan, RejectsOutOfRange) {
  Floorplan plan(xc2v2000());
  EXPECT_THROW(plan.add_region("A", -1, 3, false), pdr::Error);
  EXPECT_THROW(plan.add_region("B", 40, 48, false), pdr::Error);
  EXPECT_THROW(plan.add_region("C", 5, 3, false), pdr::Error);
}

TEST(Floorplan, EnforcesMinimumReconfigWidth) {
  // The paper's Modular Design rule: at least 4 slice-columns = 2 CLB cols.
  Floorplan plan(xc2v2000());
  EXPECT_THROW(plan.add_region("D", 10, 10, true), pdr::Error);
  const Region& r = plan.add_region("D", 10, 11, true, 8, 8);
  EXPECT_EQ(r.width_slice_cols(), 4);
}

TEST(Floorplan, InteriorReconfigRegionSplitsBusMacros) {
  Floorplan plan(xc2v2000());
  const Region& r = plan.add_region("D1", 40, 45, true, 16, 9);
  // Interior region -> input macros on left boundary, output on right.
  ASSERT_EQ(r.bus_macros.size(), 4u);  // ceil(16/8) + ceil(9/8)
  EXPECT_EQ(r.bus_macros[0].boundary_col, 40);
  EXPECT_EQ(r.bus_macros[2].boundary_col, 46);
}

TEST(Floorplan, EdgeReconfigRegionUsesSingleBoundary) {
  Floorplan plan(xc2v2000());
  const Region& r = plan.add_region("D1", 40, 47, true, 16, 9);
  // Right-edge region -> all macros straddle the left boundary.
  ASSERT_EQ(r.bus_macros.size(), 4u);
  for (const auto& m : r.bus_macros) EXPECT_EQ(m.boundary_col, 40);
}

TEST(Floorplan, WholeDeviceReconfigRegionRejected) {
  Floorplan plan(xc2v2000());
  EXPECT_THROW(plan.add_region("D", 0, 47, true, 8, 8), pdr::Error);
}

TEST(Floorplan, RegionFramesAndFraction) {
  Floorplan plan(xc2v2000());
  plan.add_region("D1", 43, 47, true, 8, 8);
  const auto frames = plan.region_frames("D1");
  EXPECT_EQ(frames.size(), 5u * 22u);  // no BRAM columns on the right edge
  // The case-study region: ~8 % of the device (paper quotes 8 %).
  EXPECT_NEAR(plan.region_fraction("D1"), 0.079, 0.01);
  EXPECT_EQ(plan.region_payload_bytes("D1"),
            frames.size() * static_cast<Bytes>(plan.device().frame_bytes()));
}

TEST(Floorplan, RegionFramesMatchTheFrameMapAlsoInACopy) {
  auto plan = std::make_optional<Floorplan>(xc2v2000());
  plan->add_region("S", 0, 9, false);
  plan->add_region("bram", 36, 39, true, 8, 8);  // BRAM column 37 inside
  plan->add_region("plain", 43, 46, true, 8, 8);
  const auto expect = [](const Floorplan& p, const Region& r) {
    EXPECT_EQ(p.region_frames(r.name), p.frame_map().frames_for_clb_range(r.col_lo, r.col_hi))
        << r.name;
  };
  for (const Region& r : plan->regions()) expect(*plan, r);
  EXPECT_GT(plan->region_frames("bram").size(), 4u * 22u);  // the BRAM frames are in it

  const Floorplan copy = *plan;
  Floorplan assigned(xc2v2000());
  assigned = copy;
  plan.reset();
  for (const Region& r : copy.regions()) expect(copy, r);
  for (const Region& r : assigned.regions()) expect(assigned, r);
}

TEST(Floorplan, RegionSlices) {
  Floorplan plan(xc2v2000());
  plan.add_region("D1", 43, 47, true, 8, 8);
  EXPECT_EQ(plan.region_slices("D1"), 5 * 56 * 4);
}

TEST(Floorplan, UnknownRegionThrows) {
  Floorplan plan(xc2v2000());
  EXPECT_THROW(plan.region("nope"), pdr::Error);
  EXPECT_EQ(plan.find_region("nope"), nullptr);
}

TEST(Floorplan, RenderShowsRegions) {
  Floorplan plan(xc2v2000());
  plan.add_region("S", 0, 1, false);
  plan.add_region("D1", 46, 47, true, 8, 8);
  const std::string r = plan.render();
  EXPECT_NE(r.find("SS"), std::string::npos);
  EXPECT_NE(r.find("DD"), std::string::npos);
  EXPECT_NE(r.find("(reconfigurable)"), std::string::npos);
}

}  // namespace
}  // namespace pdr::fabric
