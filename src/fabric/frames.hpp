// Configuration frame addressing.
//
// Virtex-II configuration memory is column oriented: every frame spans the
// full device height. A frame address (FAR) names a block type (CLB plane,
// BRAM content, BRAM interconnect), a major address (the column) and a
// minor address (the frame within that column). Frames also have a dense
// linear index used by ConfigMemory for storage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/device.hpp"

namespace pdr::fabric {

enum class BlockType : std::uint8_t { Clb = 0, BramContent = 1, BramInterconnect = 2 };

const char* block_type_name(BlockType t);

/// One frame address (block, column, frame-in-column).
struct FrameAddress {
  BlockType block = BlockType::Clb;
  std::uint16_t major = 0;  ///< column index within the block type
  std::uint16_t minor = 0;  ///< frame index within the column

  friend bool operator==(const FrameAddress&, const FrameAddress&) = default;

  /// Packs into the 32-bit FAR register encoding used in bitstreams:
  /// [25:24] block type, [23:8] major, [7:0] minor.
  std::uint32_t encode() const;

  /// Unpacks a FAR register value. Throws on unknown block type.
  static FrameAddress decode(std::uint32_t far);

  std::string to_string() const;
};

/// Frame address arithmetic for one device.
class FrameMap {
 public:
  explicit FrameMap(const DeviceModel& device);

  const DeviceModel& device() const { return device_; }

  int total_frames() const { return device_.total_frames(); }

  /// Frames in one column of the given block type.
  int frames_in_column(BlockType block) const;

  /// Number of columns of the given block type.
  int columns(BlockType block) const;

  /// Dense linear index of a frame address (0 .. total_frames()-1).
  /// Ordering: all CLB frames, then BRAM content, then BRAM interconnect.
  int linear_index(const FrameAddress& addr) const;

  /// Inverse of linear_index.
  FrameAddress from_linear(int index) const;

  /// True if the address names an existing frame on this device.
  bool valid(const FrameAddress& addr) const;

  /// All frames of one CLB column (the unit reconfigurable modules occupy).
  std::vector<FrameAddress> clb_column_frames(int clb_col) const;

  /// All frames covering CLB columns [col_lo, col_hi] plus any BRAM columns
  /// interleaved in that range (see bram_positions()).
  std::vector<FrameAddress> frames_for_clb_range(int col_lo, int col_hi) const;

  /// CLB-column positions after which a BRAM column sits. The model
  /// spreads the device's BRAM columns evenly across the array, matching
  /// Virtex-II's interleaved BRAM column layout.
  std::vector<int> bram_positions() const;

 private:
  DeviceModel device_;
};

}  // namespace pdr::fabric
