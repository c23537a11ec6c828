#include "fabric/config_memory.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pdr::fabric {

ConfigMemory::ConfigMemory(const DeviceModel& device)
    : device_(device),
      map_(device),
      frame_bytes_(static_cast<std::size_t>(device.frame_bytes())),
      frames_(std::make_unique_for_overwrite<std::uint8_t[]>(
          static_cast<std::size_t>(device.total_frames()) * frame_bytes_)),
      materialised_(static_cast<std::size_t>(device.total_frames()), 0),
      zero_frame_(frame_bytes_, 0),
      owners_(static_cast<std::size_t>(device.total_frames())) {}

void ConfigMemory::write_frame(const FrameAddress& addr, std::span<const std::uint8_t> data) {
  PDR_CHECK(data.size() == frame_bytes_, "ConfigMemory", "frame data size mismatch");
  const auto i = static_cast<std::size_t>(map_.linear_index(addr));
  std::copy(data.begin(), data.end(), frames_.get() + i * frame_bytes_);
  materialised_[i] = 1;
  owners_[i] = writer_tag_;
  ++frames_written_;
}

std::span<const std::uint8_t> ConfigMemory::read_frame(const FrameAddress& addr) const {
  const auto i = static_cast<std::size_t>(map_.linear_index(addr));
  if (materialised_[i] == 0) return zero_frame_;
  return {frames_.get() + i * frame_bytes_, frame_bytes_};
}

const std::string& ConfigMemory::frame_owner(const FrameAddress& addr) const {
  return owners_[static_cast<std::size_t>(map_.linear_index(addr))];
}

void ConfigMemory::flip_bit(const FrameAddress& addr, int byte_index, int bit) {
  PDR_CHECK(byte_index >= 0 && byte_index < device_.frame_bytes(), "ConfigMemory::flip_bit",
            "byte index out of range");
  PDR_CHECK(bit >= 0 && bit < 8, "ConfigMemory::flip_bit", "bit index out of range");
  const auto i = static_cast<std::size_t>(map_.linear_index(addr));
  std::uint8_t* frame = frames_.get() + i * frame_bytes_;
  if (materialised_[i] == 0) {
    std::fill_n(frame, frame_bytes_, std::uint8_t{0});
    materialised_[i] = 1;
  }
  frame[byte_index] ^= static_cast<std::uint8_t>(1u << bit);
  ++upsets_;
}

bool ConfigMemory::region_owned_by(std::span<const FrameAddress> addrs, const std::string& tag) const {
  for (const auto& a : addrs)
    if (frame_owner(a) != tag) return false;
  return true;
}

}  // namespace pdr::fabric
