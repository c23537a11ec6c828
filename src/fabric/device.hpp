// Virtex-II device models.
//
// The paper's case study runs on a Xilinx XC2V2000. We model the Virtex-II
// family geometry that the reconfiguration arithmetic depends on: the CLB
// array (slices / LUTs / flip-flops), BRAM and MULT18 columns, and the
// column-oriented configuration plane (frames per column, bytes per
// frame). The frame-size model `frame_bits = 80 * clb_rows + 384` lands
// within 0.1 % of the documented full-device bitstream sizes (e.g. the
// XC2V2000 model gives 851,200 bytes vs. 851,044 documented), which is the
// property the paper's "≈ 4 ms to reconfigure 8 % of the device" claim
// rests on.
#pragma once

#include <cstdint>
#include <string>

#include "util/units.hpp"

namespace pdr::fabric {

/// Static geometry of one device of the (modeled) Virtex-II family.
struct DeviceModel {
  std::string name;

  // Logic plane.
  int clb_rows = 0;  ///< CLB array height
  int clb_cols = 0;  ///< CLB array width (columns of the configuration plane)
  int slices_per_clb = 4;
  int luts_per_slice = 2;  ///< 4-input LUTs
  int ffs_per_slice = 2;

  // Embedded columns. Each BRAM column carries `brams_per_col` 18-kbit
  // block RAMs and the same number of MULT18X18 multipliers.
  int bram_cols = 0;
  int brams_per_col = 0;

  // Configuration plane (column oriented, full-height frames).
  int frames_per_clb_col = 22;
  int frames_per_bram_col = 64;       ///< BRAM content frames
  int frames_per_bram_int_col = 22;   ///< BRAM interconnect frames
  std::uint32_t idcode = 0;

  friend bool operator==(const DeviceModel&, const DeviceModel&) = default;

  int total_slices() const { return clb_rows * clb_cols * slices_per_clb; }
  int total_luts() const { return total_slices() * luts_per_slice; }
  int total_ffs() const { return total_slices() * ffs_per_slice; }
  int total_brams() const { return bram_cols * brams_per_col; }
  int total_mult18() const { return bram_cols * brams_per_col; }
  int total_tbufs() const { return clb_rows * clb_cols * 2; }  ///< 2 TBUFs per CLB

  /// Bits in one configuration frame (model; see file comment).
  int frame_bits() const { return 80 * clb_rows + 384; }
  int frame_bytes() const { return frame_bits() / 8; }
  int frame_words() const { return frame_bits() / 32; }

  /// Frames in the whole device.
  int total_frames() const {
    return clb_cols * frames_per_clb_col + bram_cols * (frames_per_bram_col + frames_per_bram_int_col);
  }

  /// Raw configuration payload of the full device (frame data only).
  Bytes config_payload_bytes() const {
    return static_cast<Bytes>(total_frames()) * static_cast<Bytes>(frame_bytes());
  }

  /// Slices per single CLB column (one column of the array, full height).
  int slices_per_clb_col() const { return clb_rows * slices_per_clb; }
};

/// XC2V1000: 40 x 32 CLBs, 5,120 slices.
DeviceModel xc2v1000();

/// XC2V2000: 56 x 48 CLBs, 10,752 slices — the paper's case-study device.
DeviceModel xc2v2000();

/// XC2V3000: 64 x 56 CLBs, 14,336 slices.
DeviceModel xc2v3000();

/// XC2V6000: 96 x 88 CLBs, 33,792 slices.
DeviceModel xc2v6000();

/// Looks a model up by name ("XC2V2000", case-insensitive). Throws on
/// unknown names.
DeviceModel device_by_name(const std::string& name);

}  // namespace pdr::fabric
