#include "fabric/config_memory.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdr::fabric {

ConfigMemory::ConfigMemory(const DeviceModel& device)
    : device_(device),
      map_(device),
      frame_bytes_(static_cast<std::size_t>(device.frame_bytes())),
      zero_frame_(frame_bytes_, 0),
      frames_(static_cast<std::size_t>(device.total_frames()),
              Frame{zero_frame_.data(), 0, kZero}),
      tags_{""},
      tag_ids_{{"", 0}} {}

std::size_t ConfigMemory::checked(int index) const {
  PDR_CHECK(index >= 0 && static_cast<std::size_t>(index) < frames_.size(), "ConfigMemory",
            strprintf("frame index %d out of range", index));
  return static_cast<std::size_t>(index);
}

std::uint32_t ConfigMemory::tag_id(const std::string& tag) {
  const auto [it, added] = tag_ids_.try_emplace(tag, static_cast<std::uint32_t>(tags_.size()));
  if (added) tags_.push_back(tag);
  return it->second;
}

std::uint32_t ConfigMemory::backing_of(const ValidatedStream& stream) {
  std::size_t free = backings_.size();
  for (std::size_t i = 0; i < backings_.size(); ++i) {
    if (backings_[i].stream.get() == &stream) return static_cast<std::uint32_t>(i);
    if (backings_[i].stream == nullptr && free == backings_.size()) free = i;
  }
  if (free == backings_.size()) backings_.emplace_back();
  backings_[free].stream = stream.shared_from_this();
  return static_cast<std::uint32_t>(free);
}

void ConfigMemory::release(std::uint32_t source) {
  if (source == kZero || source == kPrivate) return;
  Backing& backing = backings_[source];
  if (--backing.frames == 0) backing.stream.reset();
}

void ConfigMemory::write_frames(const ValidatedStream& stream, std::size_t count,
                                const std::string& tag) {
  PDR_CHECK(stream.device() == device_, "ConfigMemory",
            strprintf("stream was validated for device %s, not %s", stream.device().name.c_str(),
                      device_.name.c_str()));
  PDR_CHECK(count <= stream.frames().size(), "ConfigMemory",
            strprintf("%zu frames asked of a stream with %zu", count, stream.frames().size()));
  if (count == 0) return;
  const std::uint32_t owner = tag_id(tag);
  const std::uint32_t source = backing_of(stream);
  // Take the new holds before dropping the old ones, so rewriting frames
  // this handle already backs never lets go of it.
  backings_[source].frames += count;
  for (const ValidatedStream::Frame& frame : std::span(stream.frames()).first(count)) {
    Frame& slot = frames_[static_cast<std::size_t>(frame.index)];
    release(slot.source);
    slot = Frame{frame.data.data(), owner, source};
  }
  frames_written_ += static_cast<int>(count);
}

std::span<const std::uint8_t> ConfigMemory::read_frame(int index) const {
  return {frames_[checked(index)].data, frame_bytes_};
}

std::span<const std::uint8_t> ConfigMemory::read_frame(const FrameAddress& addr) const {
  return read_frame(map_.linear_index(addr));
}

const std::string& ConfigMemory::frame_owner(int index) const {
  return tags_[frames_[checked(index)].owner];
}

const std::string& ConfigMemory::frame_owner(const FrameAddress& addr) const {
  return frame_owner(map_.linear_index(addr));
}

void ConfigMemory::flip_bit(const FrameAddress& addr, int byte_index, int bit) {
  PDR_CHECK(byte_index >= 0 && byte_index < device_.frame_bytes(), "ConfigMemory::flip_bit",
            "byte index out of range");
  PDR_CHECK(bit >= 0 && bit < 8, "ConfigMemory::flip_bit", "bit index out of range");
  const auto i = static_cast<std::size_t>(map_.linear_index(addr));
  Frame& slot = frames_[i];
  if (slot.source != kPrivate) {
    if (private_.empty()) private_.resize(frames_.size());
    auto& copy = private_[i];
    if (copy == nullptr) copy = std::make_unique_for_overwrite<std::uint8_t[]>(frame_bytes_);
    std::copy_n(slot.data, frame_bytes_, copy.get());
    release(slot.source);
    slot.data = copy.get();
    slot.source = kPrivate;
  }
  private_[i][static_cast<std::size_t>(byte_index)] ^= static_cast<std::uint8_t>(1u << bit);
  ++upsets_;
}

bool ConfigMemory::region_owned_by(std::span<const int> indices, const std::string& tag) const {
  const auto it = tag_ids_.find(tag);
  if (it == tag_ids_.end()) return indices.empty();
  return std::ranges::all_of(indices, [this, owner = it->second](int index) {
    return frames_[checked(index)].owner == owner;
  });
}

}  // namespace pdr::fabric
