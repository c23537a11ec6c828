#include "fabric/floorplan.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdr::fabric {

ClbCols to_clb_cols(SliceCols w) {
  PDR_CHECK(w.value % kSliceColsPerClbCol == 0, "to_clb_cols",
            strprintf("%d slice-columns is not a whole number of CLB columns "
                      "(1 CLB column = %d slice-columns)",
                      w.value, kSliceColsPerClbCol));
  return ClbCols{w.value / kSliceColsPerClbCol};
}

Floorplan::Floorplan(DeviceModel device) : device_(std::move(device)), frames_(device_) {}

void Floorplan::check_overlap(int col_lo, int col_hi) const {
  for (const auto& r : regions_) {
    const bool disjoint = col_hi < r.col_lo || col_lo > r.col_hi;
    PDR_CHECK(disjoint, "Floorplan",
              strprintf("columns [%d, %d] overlap region '%s' [%d, %d]", col_lo, col_hi,
                        r.name.c_str(), r.col_lo, r.col_hi));
  }
}

const Region& Floorplan::add_region(const std::string& name, int col_lo, int col_hi,
                                    bool reconfigurable, int in_signals, int out_signals) {
  PDR_CHECK(find_region(name) == nullptr, "Floorplan", "duplicate region name '" + name + "'");
  PDR_CHECK(0 <= col_lo && col_lo <= col_hi && col_hi < device_.clb_cols, "Floorplan",
            strprintf("region '%s' columns [%d, %d] outside device (%d CLB columns)", name.c_str(),
                      col_lo, col_hi, device_.clb_cols));
  check_overlap(col_lo, col_hi);

  Region r;
  r.name = name;
  r.col_lo = col_lo;
  r.col_hi = col_hi;
  r.reconfigurable = reconfigurable;

  if (reconfigurable) {
    PDR_CHECK(r.width().value >= kMinReconfigClbCols, "Floorplan",
              strprintf("reconfigurable region '%s' is %d slice-columns (%d CLB column(s)) wide; "
                        "the Modular Design rule requires at least %d slice-columns (%d CLB "
                        "columns)",
                        name.c_str(), r.width_slices().value, r.width().value,
                        kMinReconfigSliceCols, kMinReconfigClbCols));
    // Bus macros straddle each boundary with the static area. Split the
    // crossing signals between the left and right edges when both exist
    // (left edge preferred for inputs, right for outputs, like the paper's
    // left-to-right pipeline floorplans).
    const bool has_left = col_lo > 0;
    const bool has_right = col_hi < device_.clb_cols - 1;
    PDR_CHECK(has_left || has_right, "Floorplan",
              "reconfigurable region '" + name + "' covers the whole device; nowhere for bus macros");
    // Each CLB row can host one macro band; full height gives clb_rows bands.
    const int bands = device_.clb_rows;
    if (has_left && has_right) {
      auto left = plan_bus_macros(name + "_L", col_lo, in_signals, 0, bands, device_.clb_cols);
      auto right =
          plan_bus_macros(name + "_R", col_hi + 1, 0, out_signals, bands, device_.clb_cols);
      r.bus_macros = std::move(left);
      r.bus_macros.insert(r.bus_macros.end(), right.begin(), right.end());
    } else {
      const int boundary = has_left ? col_lo : col_hi + 1;
      r.bus_macros =
          plan_bus_macros(name, boundary, in_signals, out_signals, bands, device_.clb_cols);
    }
  }

  region_frames_.push_back(frames_.frames_for_clb_range(col_lo, col_hi));
  std::vector<int>& indices = region_indices_.emplace_back();
  indices.reserve(region_frames_.back().size());
  for (const FrameAddress& addr : region_frames_.back())
    indices.push_back(frames_.linear_index(addr));
  regions_.push_back(std::move(r));
  return regions_.back();
}

const Region* Floorplan::find_region(const std::string& name) const {
  for (const auto& r : regions_)
    if (r.name == name) return &r;
  return nullptr;
}

const Region& Floorplan::region(const std::string& name) const {
  const Region* r = find_region(name);
  PDR_CHECK(r != nullptr, "Floorplan::region", "no region named '" + name + "'");
  return *r;
}

std::vector<const Region*> Floorplan::reconfigurable_regions() const {
  std::vector<const Region*> out;
  for (const auto& r : regions_)
    if (r.reconfigurable) out.push_back(&r);
  return out;
}

std::vector<int> Floorplan::free_columns() const {
  std::vector<bool> used(static_cast<std::size_t>(device_.clb_cols), false);
  for (const auto& r : regions_)
    for (int c = r.col_lo; c <= r.col_hi; ++c) used[static_cast<std::size_t>(c)] = true;
  std::vector<int> out;
  for (int c = 0; c < device_.clb_cols; ++c)
    if (!used[static_cast<std::size_t>(c)]) out.push_back(c);
  return out;
}

std::size_t Floorplan::region_slot(const std::string& name) const {
  return static_cast<std::size_t>(&region(name) - regions_.data());
}

const std::vector<FrameAddress>& Floorplan::region_frames(const std::string& name) const {
  return region_frames_[region_slot(name)];
}

const std::vector<int>& Floorplan::region_frame_indices(const std::string& name) const {
  return region_indices_[region_slot(name)];
}

Bytes Floorplan::region_payload_bytes(const std::string& name) const {
  return static_cast<Bytes>(region_frames(name).size()) *
         static_cast<Bytes>(device_.frame_bytes());
}

double Floorplan::region_fraction(const std::string& name) const {
  return static_cast<double>(region_frames(name).size()) /
         static_cast<double>(device_.total_frames());
}

int Floorplan::region_slices(const std::string& name) const {
  return region(name).width_cols() * device_.slices_per_clb_col();
}

std::string Floorplan::render() const {
  std::string out(static_cast<std::size_t>(device_.clb_cols), '.');
  for (const auto& r : regions_) {
    const char mark = r.reconfigurable ? 'D' : 'S';
    for (int c = r.col_lo; c <= r.col_hi; ++c) out[static_cast<std::size_t>(c)] = mark;
  }
  std::string legend;
  for (const auto& r : regions_)
    legend += strprintf("  %s: cols [%d, %d]%s\n", r.name.c_str(), r.col_lo, r.col_hi,
                        r.reconfigurable ? " (reconfigurable)" : "");
  return device_.name + " |" + out + "|\n" + legend;
}

}  // namespace pdr::fabric
