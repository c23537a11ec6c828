#include <gtest/gtest.h>

#include <optional>

#include "fabric/bus_macro.hpp"
#include "fabric/config_memory.hpp"
#include "fabric/config_port.hpp"
#include "fabric/context.hpp"
#include "fabric/floorplan.hpp"
#include "fabric/relocate.hpp"
#include "synth/bitgen.hpp"
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

// --- bitstream relocation -------------------------------------------------------

struct RelocFixture {
  Floorplan plan{xc2v2000()};
  RelocFixture() {
    // Two congruent 3-column regions at the right edge (no BRAM columns).
    plan.add_region("A", 39, 41, true, 8, 8);
    plan.add_region("B", 42, 44, true, 8, 8);
    plan.add_region("narrow", 45, 47, true, 8, 8);
  }
};

TEST(Relocate, CongruenceChecks) {
  RelocFixture f;
  EXPECT_TRUE(regions_congruent(f.plan, "A", "B"));
  EXPECT_TRUE(regions_congruent(f.plan, "B", "A"));
  Floorplan mixed(xc2v2000());
  mixed.add_region("wide", 40, 44, true, 8, 8);
  mixed.add_region("slim", 45, 47, true, 8, 8);
  EXPECT_FALSE(regions_congruent(mixed, "wide", "slim"));
}

TEST(Relocate, BramMisalignmentBreaksCongruence) {
  // A region straddling a BRAM column (position 37) is not congruent with
  // one that has none.
  Floorplan plan(xc2v2000());
  plan.add_region("bram", 36, 39, true, 8, 8);   // BRAM col 37 inside
  plan.add_region("plain", 43, 46, true, 8, 8);  // none
  EXPECT_FALSE(regions_congruent(plan, "bram", "plain"));
}

TEST(Relocate, RelocatedStreamLoadsIntoTargetRegion) {
  RelocFixture f;
  const auto frames_a = f.plan.region_frames("A");
  const auto frames_b = f.plan.region_frames("B");
  const auto stream = synth::generate_partial_bitstream(f.plan.device(), frames_a, 777);

  const auto moved = relocate_bitstream(f.plan, stream, "A", "B");
  EXPECT_EQ(moved.size(), stream.size());  // same frames, same framing
  EXPECT_NE(moved, stream);                // but different addresses + CRC

  ConfigMemory mem(f.plan.device());
  ConfigPort port(PortKind::Icap, ConfigPort::default_timing(PortKind::Icap), mem);
  const auto report = port.load(moved, "moved_module");
  EXPECT_EQ(report.frames_written, static_cast<int>(frames_b.size()));
  EXPECT_TRUE(mem.region_owned_by(frames_b, "moved_module"));
  // Region A untouched.
  EXPECT_FALSE(mem.region_owned_by(frames_a, "moved_module"));
  // Payload preserved frame-for-frame.
  const FrameMap map(f.plan.device());
  const auto d0 = mem.read_frame(frames_b[0]);
  for (int b = 0; b < 8; ++b)
    EXPECT_EQ(d0[static_cast<std::size_t>(b)],
              synth::frame_payload_byte(777, map.linear_index(frames_a[0]), b));
}

TEST(Relocate, RoundTripRestoresOriginal) {
  RelocFixture f;
  const auto stream =
      synth::generate_partial_bitstream(f.plan.device(), f.plan.region_frames("A"), 42);
  const auto there = relocate_bitstream(f.plan, stream, "A", "B");
  const auto back = relocate_bitstream(f.plan, there, "B", "A");
  EXPECT_EQ(back, stream);
}

TEST(Relocate, IncompatibleRegionsRejected) {
  Floorplan plan(xc2v2000());
  plan.add_region("wide", 40, 44, true, 8, 8);
  plan.add_region("slim", 45, 47, true, 8, 8);
  const auto stream =
      synth::generate_partial_bitstream(plan.device(), plan.region_frames("wide"), 1);
  EXPECT_THROW(relocate_bitstream(plan, stream, "wide", "slim"), pdr::Error);
}

TEST(Relocate, StreamOutsideSourceRegionRejected) {
  RelocFixture f;
  // Stream actually targets 'narrow' but is declared as region A.
  const auto stream =
      synth::generate_partial_bitstream(f.plan.device(), f.plan.region_frames("narrow"), 1);
  EXPECT_THROW(relocate_bitstream(f.plan, stream, "A", "B"), pdr::Error);
}

// --- context save / restore (task state migration) -------------------------------

TEST(Context, SnapshotRestoresExactState) {
  RelocFixture f;
  ConfigMemory mem(f.plan.device());
  const auto frames = f.plan.region_frames("A");
  // Configure the region with a module.
  const auto stream = synth::generate_partial_bitstream(f.plan.device(), frames, 99);
  ConfigPort port(PortKind::Icap, ConfigPort::default_timing(PortKind::Icap), mem);
  port.load(stream, "task");

  // Mutate one frame (runtime state change: e.g. an SRL shifted).
  mem.flip_bit(frames[5], 12, 3);
  const auto snapshot = snapshot_region(mem, f.plan, "A");

  // Clobber the region, then restore the snapshot.
  port.load(synth::generate_partial_bitstream(f.plan.device(), frames, 1234), "other");
  EXPECT_NE(mem.read_frame(frames[5])[12],
            static_cast<std::uint8_t>(synth::frame_payload_byte(99, 0, 12) ^ 0));
  const int restored = restore_region(mem, f.plan, "A", snapshot, "task");
  EXPECT_EQ(restored, static_cast<int>(frames.size()));

  // The mutated state survived the round trip exactly.
  const fabric::FrameMap map(f.plan.device());
  for (std::size_t k = 0; k < frames.size(); ++k) {
    const auto data = mem.read_frame(frames[k]);
    for (int b = 0; b < f.plan.device().frame_bytes(); b += 37) {
      std::uint8_t expect = synth::frame_payload_byte(99, map.linear_index(frames[k]), b);
      if (k == 5 && b == 12) expect ^= (1u << 3);
      EXPECT_EQ(data[static_cast<std::size_t>(b)], expect) << "frame " << k << " byte " << b;
    }
  }
  EXPECT_EQ(mem.frame_owner(frames[0]), "task");
}

TEST(Context, SnapshotMigratesToCongruentRegion) {
  // Save in region A, relocate the snapshot, resume in region B — task
  // migration with live state.
  RelocFixture f;
  ConfigMemory mem(f.plan.device());
  const auto frames_a = f.plan.region_frames("A");
  const auto frames_b = f.plan.region_frames("B");
  ConfigPort port(PortKind::Icap, ConfigPort::default_timing(PortKind::Icap), mem);
  port.load(synth::generate_partial_bitstream(f.plan.device(), frames_a, 55), "task");
  mem.flip_bit(frames_a[2], 7, 1);  // live state

  const auto snapshot = snapshot_region(mem, f.plan, "A");
  const auto moved = relocate_bitstream(f.plan, snapshot, "A", "B");
  restore_region(mem, f.plan, "B", moved, "task");

  // Region B now holds the state, including the live mutation.
  const fabric::FrameMap map(f.plan.device());
  const auto data = mem.read_frame(frames_b[2]);
  const std::uint8_t expect =
      synth::frame_payload_byte(55, map.linear_index(frames_a[2]), 7) ^ (1u << 1);
  EXPECT_EQ(data[7], expect);
}

TEST(Context, RestoreRejectsWrongRegion) {
  RelocFixture f;
  ConfigMemory mem(f.plan.device());
  const auto frames = f.plan.region_frames("A");
  ConfigPort port(PortKind::Icap, ConfigPort::default_timing(PortKind::Icap), mem);
  port.load(synth::generate_partial_bitstream(f.plan.device(), frames, 3), "task");
  const auto snapshot = snapshot_region(mem, f.plan, "A");
  EXPECT_THROW(restore_region(mem, f.plan, "narrow", snapshot, "task"), pdr::Error);
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
