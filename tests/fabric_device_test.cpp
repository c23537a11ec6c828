#include <gtest/gtest.h>

#include "fabric/bitstream.hpp"
#include "fabric/device.hpp"
#include "fabric/frames.hpp"
#include "util/error.hpp"

namespace pdr::fabric {
namespace {

TEST(Device, Xc2v2000Geometry) {
  const DeviceModel d = xc2v2000();
  EXPECT_EQ(d.clb_rows, 56);
  EXPECT_EQ(d.clb_cols, 48);
  EXPECT_EQ(d.total_slices(), 10752);  // documented XC2V2000 slice count
  EXPECT_EQ(d.total_luts(), 21504);
  EXPECT_EQ(d.total_brams(), 56);     // 56 x 18 kbit
  EXPECT_EQ(d.total_mult18(), 56);
}

TEST(Device, Xc2v2000BitstreamSizeMatchesDatasheet) {
  // Documented full-device configuration: 6,808,352 bits = 851,044 bytes.
  // The frame model must land within 0.1 %.
  const DeviceModel d = xc2v2000();
  const double model = static_cast<double>(d.config_payload_bytes());
  EXPECT_NEAR(model, 851044.0, 851.0);
}

TEST(Device, FrameBytesWholeWords) {
  for (const auto& d : {xc2v1000(), xc2v2000(), xc2v3000(), xc2v6000()}) {
    EXPECT_EQ(d.frame_bits() % 32, 0) << d.name;
    EXPECT_EQ(d.frame_bytes() * 8, d.frame_bits()) << d.name;
  }
}

TEST(Device, FamilyOrderingBySize) {
  EXPECT_LT(xc2v1000().total_slices(), xc2v2000().total_slices());
  EXPECT_LT(xc2v2000().total_slices(), xc2v3000().total_slices());
  EXPECT_LT(xc2v3000().total_slices(), xc2v6000().total_slices());
  EXPECT_LT(xc2v1000().config_payload_bytes(), xc2v6000().config_payload_bytes());
}

TEST(Device, LookupByNameCaseInsensitive) {
  EXPECT_EQ(device_by_name("xc2v2000").name, "XC2V2000");
  EXPECT_EQ(device_by_name("XC2V1000").name, "XC2V1000");
  EXPECT_THROW(device_by_name("xc7z020"), Error);
}

TEST(Device, DistinctIdcodes) {
  EXPECT_NE(xc2v1000().idcode, xc2v2000().idcode);
  EXPECT_NE(xc2v2000().idcode, xc2v3000().idcode);
}

// --- frame addressing ---------------------------------------------------------

TEST(FrameAddress, EncodeDecodeRoundTrip) {
  const FrameAddress a{BlockType::BramContent, 3, 17};
  const FrameAddress b = FrameAddress::decode(a.encode());
  EXPECT_EQ(a, b);
}

TEST(FrameAddress, DecodeRejectsUnknownBlock) {
  EXPECT_THROW(FrameAddress::decode(0x03000000u), Error);
}

TEST(FrameAddress, ToStringNamesBlock) {
  EXPECT_EQ((FrameAddress{BlockType::Clb, 5, 2}).to_string(), "CLB[5].2");
}

class FrameMapDeviceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FrameMapDeviceTest, LinearIndexBijective) {
  const FrameMap map(device_by_name(GetParam()));
  for (int i = 0; i < map.total_frames(); ++i) {
    const FrameAddress a = map.from_linear(i);
    EXPECT_TRUE(map.valid(a));
    EXPECT_EQ(map.linear_index(a), i);
  }
}

TEST_P(FrameMapDeviceTest, NextWalksLinearly) {
  // An FDRI burst auto-increments the FAR to the next frame in linear
  // order: one burst over the whole device from frame 0 writes frame i
  // at index i, and the same burst from frame 1 runs past the last frame.
  const DeviceModel d = device_by_name(GetParam());
  const FrameMap map(d);
  const std::vector<std::uint8_t> every_frame(
      static_cast<std::size_t>(map.total_frames()) * static_cast<std::size_t>(d.frame_bytes()));
  const auto burst_from = [&](int first) {
    BitstreamWriter w(d);
    w.begin();
    w.write_idcode();
    w.write_far(map.from_linear(first));
    w.write_fdri(every_frame);
    w.end();
    return w.take();
  };
  const auto handle = ValidatedStream::parse(d, burst_from(0));
  ASSERT_EQ(handle->frames().size(), static_cast<std::size_t>(map.total_frames()));
  for (int i = 0; i < map.total_frames(); ++i)
    EXPECT_EQ(handle->frames()[static_cast<std::size_t>(i)].index, i);
  EXPECT_THROW(ValidatedStream::parse(d, burst_from(1)), Error);  // past the last frame
}

TEST_P(FrameMapDeviceTest, BramPositionsInsideArray) {
  const DeviceModel d = device_by_name(GetParam());
  const FrameMap map(d);
  const auto positions = map.bram_positions();
  EXPECT_EQ(positions.size(), static_cast<std::size_t>(d.bram_cols));
  for (std::size_t i = 0; i < positions.size(); ++i) {
    EXPECT_GE(positions[i], 0);
    EXPECT_LT(positions[i], d.clb_cols);
    if (i > 0) {
      EXPECT_GT(positions[i], positions[i - 1]);  // strictly increasing
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Devices, FrameMapDeviceTest,
                         ::testing::Values("XC2V1000", "XC2V2000", "XC2V3000", "XC2V6000"));

TEST(FrameMap, ClbColumnFrames) {
  const FrameMap map(xc2v2000());
  const auto frames = map.clb_column_frames(7);
  EXPECT_EQ(frames.size(), 22u);
  for (const auto& f : frames) {
    EXPECT_EQ(f.block, BlockType::Clb);
    EXPECT_EQ(f.major, 7);
  }
  EXPECT_THROW(map.clb_column_frames(48), pdr::Error);
}

TEST(FrameMap, RangeWithoutBramColumns) {
  const FrameMap map(xc2v2000());
  // Columns 43..47 lie right of every BRAM position (8, 18, 27, 37).
  const auto frames = map.frames_for_clb_range(43, 47);
  EXPECT_EQ(frames.size(), 5u * 22u);
}

TEST(FrameMap, RangeSpanningBramColumnIncludesIt) {
  const DeviceModel d = xc2v2000();
  const FrameMap map(d);
  const auto positions = map.bram_positions();
  const int p = positions[0];
  const auto frames = map.frames_for_clb_range(p, p + 1);  // BRAM col strictly inside? p < hi
  // CLB frames + one BRAM column (content + interconnect).
  const std::size_t expect = 2u * 22u + static_cast<std::size_t>(d.frames_per_bram_col) +
                             static_cast<std::size_t>(d.frames_per_bram_int_col);
  EXPECT_EQ(frames.size(), expect);
}

TEST(FrameMap, BadRangeThrows) {
  const FrameMap map(xc2v2000());
  EXPECT_THROW(map.frames_for_clb_range(5, 3), pdr::Error);
  EXPECT_THROW(map.frames_for_clb_range(-1, 3), pdr::Error);
  EXPECT_THROW(map.frames_for_clb_range(0, 48), pdr::Error);
}

TEST(FrameMap, TotalFramesConsistent) {
  const DeviceModel d = xc2v2000();
  const FrameMap map(d);
  EXPECT_EQ(map.total_frames(),
            d.clb_cols * d.frames_per_clb_col +
                d.bram_cols * (d.frames_per_bram_col + d.frames_per_bram_int_col));
}

}  // namespace
}  // namespace pdr::fabric
