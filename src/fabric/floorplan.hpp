// Device floorplan: static area plus full-height reconfigurable regions.
//
// The paper's Modular-Design placement rules (§5) are enforced here:
//  - a reconfigurable module spans the full height of the device,
//  - its width is at least four slices (= two CLB columns, since a
//    Virtex-II CLB column is two slice-columns wide),
//  - regions do not overlap,
//  - static/dynamic signals cross only through bus macros pinned at the
//    region boundaries.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fabric/bus_macro.hpp"
#include "fabric/device.hpp"
#include "fabric/frames.hpp"

namespace pdr::fabric {

// -------------------------------------------------------------- width units
//
// Virtex-II widths come in two units that are numerically off by exactly a
// factor of two: the configuration grid (and this floorplan) counts CLB
// columns, while the paper's Modular Design rule counts slice-columns
// (one CLB column = two slice-columns). A bare `int` width silently means
// either, which is how a spec authored in slice-columns can pass the
// RegionTooNarrow check at half the intended width. Widths therefore cross
// API boundaries as distinct wrapper types with an asserting conversion.

/// Slice-columns per CLB column on Virtex-II.
inline constexpr int kSliceColsPerClbCol = 2;

/// A width counted in CLB columns (the configuration-grid unit).
struct ClbCols {
  int value = 0;
  constexpr bool operator==(const ClbCols&) const = default;
};

/// A width counted in slice-columns (the paper's §5 unit).
struct SliceCols {
  int value = 0;
  constexpr bool operator==(const SliceCols&) const = default;
};

constexpr SliceCols to_slice_cols(ClbCols w) { return SliceCols{w.value * kSliceColsPerClbCol}; }

/// Converts a slice-column width to CLB columns; throws if the count is
/// not a whole number of CLB columns (regions sit on CLB-column
/// boundaries, so an odd slice-column width cannot be realized).
ClbCols to_clb_cols(SliceCols w);

/// Minimum reconfigurable-region width: 4 slice-columns = 2 CLB columns.
inline constexpr int kMinReconfigClbCols = 2;
/// The same minimum in the paper's unit.
inline constexpr int kMinReconfigSliceCols = kMinReconfigClbCols * kSliceColsPerClbCol;
static_assert(kMinReconfigSliceCols == 4, "the paper's rule is four slice-columns");

/// One full-height column range of the device.
struct Region {
  std::string name;
  int col_lo = 0;  ///< first CLB column (inclusive)
  int col_hi = 0;  ///< last CLB column (inclusive)
  bool reconfigurable = false;
  std::vector<BusMacro> bus_macros;  ///< bridges at this region's edges

  ClbCols width() const { return ClbCols{col_hi - col_lo + 1}; }
  SliceCols width_slices() const { return to_slice_cols(width()); }

  int width_cols() const { return width().value; }
  /// Width in slice-columns (the unit the paper's 4-slice rule uses).
  int width_slice_cols() const { return width_slices().value; }
};

class Floorplan {
 public:
  explicit Floorplan(DeviceModel device);

  const DeviceModel& device() const { return device_; }
  const FrameMap& frame_map() const { return frames_; }

  /// Adds a region; validates the placement rules above. For
  /// reconfigurable regions, plans bus macros for `in_signals` /
  /// `out_signals` crossing each of its boundaries with the static area.
  /// Also builds the region's frame list (see region_frames). The
  /// returned reference is valid until the next add_region.
  const Region& add_region(const std::string& name, int col_lo, int col_hi, bool reconfigurable,
                           int in_signals = 0, int out_signals = 0);

  const Region& region(const std::string& name) const;
  const Region* find_region(const std::string& name) const;
  const std::vector<Region>& regions() const { return regions_; }

  std::vector<const Region*> reconfigurable_regions() const;

  /// CLB columns not covered by any region (available static area).
  std::vector<int> free_columns() const;

  /// All configuration frames of a region (CLB + interleaved BRAM cols),
  /// as FrameMap::frames_for_clb_range lists them. Built once by
  /// add_region, so a const Floorplan can be read from many threads; the
  /// reference is valid as long as this Floorplan (a copy has its own).
  const std::vector<FrameAddress>& region_frames(const std::string& name) const;

  /// The same frames by FrameMap::linear_index, built alongside.
  const std::vector<int>& region_frame_indices(const std::string& name) const;

  /// Frame-data payload bytes of a partial bitstream covering the region.
  Bytes region_payload_bytes(const std::string& name) const;

  /// Region frames as a fraction of total device frames (the paper quotes
  /// its dynamic region as 8 % of the FPGA).
  double region_fraction(const std::string& name) const;

  /// Slices available in a region.
  int region_slices(const std::string& name) const;

  /// ASCII rendering of the column map, e.g. "SSSS DDDD SSSS..." — used by
  /// examples to show the resulting floorplan.
  std::string render() const;

 private:
  void check_overlap(int col_lo, int col_hi) const;
  std::size_t region_slot(const std::string& name) const;

  DeviceModel device_;
  FrameMap frames_;
  std::vector<Region> regions_;
  std::vector<std::vector<FrameAddress>> region_frames_;  ///< parallel to regions_
  std::vector<std::vector<int>> region_indices_;          ///< parallel to regions_
};

}  // namespace pdr::fabric
