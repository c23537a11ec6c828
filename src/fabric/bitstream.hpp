// Synthetic Virtex-II-style configuration bitstream format.
//
// A bitstream is a sequence of big-endian 32-bit words:
//
//   <dummy pad words> SYNC
//   W IDCODE <idcode>
//   repeated: W FAR <frame address> ; W FDRI <n> <n frame-data words ...>
//   W CRC <crc32 over all FAR/FDRI payload bytes>
//   W CMD DESYNC
//
// Type-1 packet header: [31:29]=001, [28:27]=opcode (01 = write),
// [26:13]=register address, [10:0]=word count. This mirrors the real
// SelectMAP packet protocol closely enough that the protocol configuration
// builder (paper §5) has real work to do: framing, auto-incrementing frame
// addresses, CRC sealing, and desync.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dsp/crc.hpp"
#include "fabric/frames.hpp"

namespace pdr::fabric {

/// Configuration registers addressed by packets.
enum class ConfigReg : std::uint16_t {
  Crc = 0,
  Far = 1,
  Fdri = 2,
  Mfwr = 3,  ///< multi-frame write: repeat the last FDRI frame at the current FAR
  Cmd = 4,
  Idcode = 12,
};

/// CMD register values.
enum class ConfigCmd : std::uint32_t {
  Null = 0,
  WriteConfig = 1,
  Desync = 13,
};

inline constexpr std::uint32_t kSyncWord = 0xaa995566u;
inline constexpr std::uint32_t kDummyWord = 0xffffffffu;

/// One parsed packet action (exposed for tests / inspection tools).
struct PacketAction {
  ConfigReg reg = ConfigReg::Cmd;
  std::vector<std::uint32_t> payload;
};

/// Serializes configuration command sequences into bitstream bytes.
class BitstreamWriter {
 public:
  explicit BitstreamWriter(const DeviceModel& device);

  /// Emits pad words and the sync word; call first.
  void begin();

  /// Emits the IDCODE check word.
  void write_idcode();

  /// Sets the frame address register.
  void write_far(const FrameAddress& addr);

  /// Writes `frames` consecutive frames of data starting at the current
  /// FAR. `data.size()` must equal frames * frame_bytes and frame_bytes
  /// must divide into whole words.
  void write_fdri(std::span<const std::uint8_t> data);

  /// Multi-frame write (compression): repeats the data of the last FDRI
  /// frame at `addr` — a 4-word packet pair instead of a whole frame.
  /// Requires a preceding write_fdri in this stream.
  void write_mfwr(const FrameAddress& addr);

  /// Seals the stream: CRC word + DESYNC command. Call last.
  void end();

  /// The finished stream (valid after end()).
  const std::vector<std::uint8_t>& bytes() const { return out_; }
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  void put_word(std::uint32_t w);
  void put_header(ConfigReg reg, std::size_t words);

  DeviceModel device_;
  std::vector<std::uint8_t> out_;
  dsp::Crc32 crc_;
  bool begun_ = false;
  bool ended_ = false;
  bool have_fdri_frame_ = false;  ///< MFWR legality
};

/// A bitstream that passed one full parse against one device: its bytes
/// and one view per frame write in write order (an MFWR repeat gets its
/// own view of the repeated frame). Immutable and shared by handle.
///
/// The parse checks the sync word, the IDCODE against the device, word
/// counts, frame alignment, the final CRC and the DESYNC trailer, and
/// throws pdr::Error with a precise message on any violation. It is the
/// only reader of frame writes, so no handle exists for bytes that failed
/// it: whoever holds a handle may write its frames without parsing again.
class ValidatedStream {
 public:
  struct Frame {
    FrameAddress addr;
    /// Into bytes(), or into the handle's copy of the zero frame that an
    /// empty FDRI burst leaves for a following MFWR.
    std::span<const std::uint8_t> data;
    /// Byte offset just past the packet that wrote this frame. A transfer
    /// cut after byte n has delivered exactly the frames with end <= n:
    /// an FDRI burst's frames land only once the whole burst is in.
    std::size_t end = 0;
  };

  /// Parses `bytes` against `device`. The bytes are copied into the
  /// handle only once the parse succeeds; a throw copies nothing.
  static std::shared_ptr<const ValidatedStream> parse(const DeviceModel& device,
                                                       std::span<const std::uint8_t> bytes);

  ValidatedStream(const ValidatedStream&) = delete;
  ValidatedStream& operator=(const ValidatedStream&) = delete;

  std::span<const std::uint8_t> bytes() const { return bytes_; }
  const DeviceModel& device() const { return device_; }
  const std::vector<Frame>& frames() const { return frames_; }

 private:
  ValidatedStream(const DeviceModel& device, std::span<const std::uint8_t> bytes,
                  std::vector<Frame> frames, std::vector<std::uint8_t> zero_frame);

  DeviceModel device_;
  std::vector<std::uint8_t> bytes_;
  std::vector<std::uint8_t> zero_frame_;
  std::vector<Frame> frames_;
};

/// Decodes the packet list of a validated stream (debugging / inspection).
std::vector<PacketAction> decode_packets(const ValidatedStream& stream);

/// Human-readable one-line summary ("XC2V2000 bitstream: 65.4 KiB, 110
/// frames, crc ok").
std::string describe_bitstream(const ValidatedStream& stream);

}  // namespace pdr::fabric
