// Device configuration memory.
//
// Holds the current contents of every configuration frame and, per frame,
// the name of the module whose bitstream last wrote it. This is how the
// simulation observes which module is "physically" present in a
// reconfigurable region at any instant.
//
// Storage is one block with every frame back to back, allocated without
// zero-filling it; a frame's slot is filled by its first write (or by the
// first upset flipped into it), and until then the frame reads as one
// shared all-zero frame. A memory therefore costs only the frames a run
// writes. It is move-only.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fabric/frames.hpp"

namespace pdr::fabric {

class ConfigMemory {
 public:
  explicit ConfigMemory(const DeviceModel& device);

  const DeviceModel& device() const { return device_; }

  /// Stores one frame and tags it with the pending writer tag (see
  /// set_writer_tag).
  void write_frame(const FrameAddress& addr, std::span<const std::uint8_t> data);

  /// Tag recorded on every subsequent frame write (typically the module
  /// name whose bitstream is being loaded).
  void set_writer_tag(std::string tag) { writer_tag_ = std::move(tag); }

  /// Readback of one frame (all zeros if it was never written). The span
  /// stays valid until that frame is next written or flipped.
  std::span<const std::uint8_t> read_frame(const FrameAddress& addr) const;

  /// Owner tag of a frame ("" if never written).
  const std::string& frame_owner(const FrameAddress& addr) const;

  /// Number of frames ever written.
  int frames_written() const { return frames_written_; }

  /// True if every frame in `addrs` is owned by `tag`.
  bool region_owned_by(std::span<const FrameAddress> addrs, const std::string& tag) const;

  /// Flips one bit of a stored frame — a single-event upset (SEU) model
  /// for scrubbing experiments. The owner tag is unchanged: corruption is
  /// invisible to bookkeeping, only to payload verification. A frame
  /// never written is zero-filled first. Throws pdr::Error on an invalid
  /// address, byte_index or bit.
  void flip_bit(const FrameAddress& addr, int byte_index, int bit);

  /// Number of bits ever flipped through flip_bit().
  int upsets() const { return upsets_; }

 private:
  DeviceModel device_;
  FrameMap map_;
  std::size_t frame_bytes_;
  std::unique_ptr<std::uint8_t[]> frames_;  ///< frame i at i * frame_bytes_
  std::vector<std::uint8_t> materialised_;  ///< 1 once frame i's slot holds data
  std::vector<std::uint8_t> zero_frame_;    ///< what an unfilled frame reads as
  std::vector<std::string> owners_;
  std::string writer_tag_;
  int frames_written_ = 0;
  int upsets_ = 0;
};

}  // namespace pdr::fabric
