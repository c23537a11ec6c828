// Device configuration memory.
//
// Holds the current contents of every configuration frame and, per frame,
// the name of the module whose bitstream last wrote it. This is how the
// simulation observes which module is "physically" present in a
// reconfigurable region at any instant.
//
// A frame is a pointer to its current bytes plus a small-integer owner id
// into a per-memory tag table; frames are addressed by their linear index
// (FrameMap::linear_index), and the FrameAddress overloads translate. A
// write copies no bytes: the frame points into the ValidatedStream that
// wrote it, and the memory shares ownership of that handle (immutable and
// always shared-owned) until no frame points into it, so the loaded bytes
// stay readable after the store or bundle that held the handle is gone.
// A never-written frame reads as the memory's zero frame. flip_bit copies
// a frame into a private slot on its first upset (copy-on-write), so an
// upset never reaches the shared handle. It is move-only.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "fabric/bitstream.hpp"
#include "fabric/frames.hpp"

namespace pdr::fabric {

class ConfigMemory {
 public:
  explicit ConfigMemory(const DeviceModel& device);
  ConfigMemory(const ConfigMemory&) = delete;
  ConfigMemory& operator=(const ConfigMemory&) = delete;
  ConfigMemory(ConfigMemory&&) = default;
  ConfigMemory& operator=(ConfigMemory&&) = default;

  const DeviceModel& device() const { return device_; }

  /// Points the first `count` frame writes of `stream` at the stream's
  /// bytes and tags them `tag` (typically the module whose bitstream is
  /// being loaded). Throws pdr::Error if `stream` was validated for
  /// another device or has fewer than `count` frame writes.
  void write_frames(const ValidatedStream& stream, std::size_t count, const std::string& tag);

  /// Readback of one frame (all zeros if it was never written). The span
  /// stays valid until that frame is next written or flipped.
  std::span<const std::uint8_t> read_frame(int index) const;
  std::span<const std::uint8_t> read_frame(const FrameAddress& addr) const;

  /// Owner tag of a frame ("" if never written).
  const std::string& frame_owner(int index) const;
  const std::string& frame_owner(const FrameAddress& addr) const;

  /// Number of frames ever written.
  int frames_written() const { return frames_written_; }

  /// True if every frame in `indices` is owned by `tag`.
  bool region_owned_by(std::span<const int> indices, const std::string& tag) const;

  /// Flips one bit of a stored frame — a single-event upset (SEU) model
  /// for scrubbing experiments. The owner tag is unchanged: corruption is
  /// invisible to bookkeeping, only to payload verification. Throws
  /// pdr::Error on an invalid address, byte_index or bit.
  void flip_bit(const FrameAddress& addr, int byte_index, int bit);

  /// Number of bits ever flipped through flip_bit().
  int upsets() const { return upsets_; }

 private:
  /// What backs a frame's bytes: the zero frame, its private slot, or
  /// backings_[source].
  static constexpr std::uint32_t kZero = 0xffffffffu;
  static constexpr std::uint32_t kPrivate = 0xfffffffeu;

  struct Frame {
    const std::uint8_t* data;
    std::uint32_t owner;   ///< into tags_
    std::uint32_t source;  ///< kZero, kPrivate or into backings_
  };
  /// A handle some frames point into, and how many; a free slot holds none.
  struct Backing {
    std::shared_ptr<const ValidatedStream> stream;
    std::size_t frames = 0;
  };

  std::size_t checked(int index) const;
  std::uint32_t tag_id(const std::string& tag);
  /// The backing slot of `stream`, taking a free one if it has none.
  std::uint32_t backing_of(const ValidatedStream& stream);
  /// Drops one frame's hold on `source`; a backing with no frames left
  /// lets go of its handle.
  void release(std::uint32_t source);

  DeviceModel device_;
  FrameMap map_;
  std::size_t frame_bytes_;
  std::vector<std::uint8_t> zero_frame_;  ///< what an unwritten frame reads as
  std::vector<Frame> frames_;             ///< by linear index
  std::vector<Backing> backings_;
  std::vector<std::unique_ptr<std::uint8_t[]>> private_;  ///< by linear index, made on first upset
  std::vector<std::string> tags_;                           ///< tags_[0] is ""
  std::unordered_map<std::string, std::uint32_t> tag_ids_;
  int frames_written_ = 0;
  int upsets_ = 0;
};

}  // namespace pdr::fabric
