#include "fabric/bitstream.hpp"

#include <optional>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdr::fabric {
namespace {

constexpr std::uint32_t kType1 = 0b001u << 29;
constexpr std::uint32_t kType2 = 0b010u << 29;
constexpr std::uint32_t kOpWrite = 0b01u << 27;
constexpr std::uint32_t kType1CountMask = 0x7ffu;  // 11 bits
constexpr std::uint32_t kType2CountMask = 0x07ffffffu;

std::uint32_t type1_header(ConfigReg reg, std::uint32_t count) {
  return kType1 | kOpWrite | (static_cast<std::uint32_t>(reg) << 13) | (count & kType1CountMask);
}

std::uint32_t type2_header(std::uint32_t count) { return kType2 | kOpWrite | (count & kType2CountMask); }

std::uint32_t word_at(std::span<const std::uint8_t> bytes, std::size_t word_index) {
  const std::size_t i = word_index * 4;
  return (static_cast<std::uint32_t>(bytes[i]) << 24) | (static_cast<std::uint32_t>(bytes[i + 1]) << 16) |
         (static_cast<std::uint32_t>(bytes[i + 2]) << 8) | static_cast<std::uint32_t>(bytes[i + 3]);
}

}  // namespace

BitstreamWriter::BitstreamWriter(const DeviceModel& device) : device_(device) {}

void BitstreamWriter::put_word(std::uint32_t w) {
  out_.push_back(static_cast<std::uint8_t>(w >> 24));
  out_.push_back(static_cast<std::uint8_t>(w >> 16));
  out_.push_back(static_cast<std::uint8_t>(w >> 8));
  out_.push_back(static_cast<std::uint8_t>(w));
}

void BitstreamWriter::put_header(ConfigReg reg, std::size_t words) {
  if (reg == ConfigReg::Fdri) {
    // FDRI writes always use a type-1 header with count 0 followed by a
    // type-2 count word, like large real-world FDRI bursts.
    put_word(type1_header(reg, 0));
    PDR_CHECK(words <= kType2CountMask, "BitstreamWriter", "FDRI burst too large");
    put_word(type2_header(static_cast<std::uint32_t>(words)));
  } else {
    PDR_CHECK(words <= kType1CountMask, "BitstreamWriter", "packet too large for type-1 header");
    put_word(type1_header(reg, static_cast<std::uint32_t>(words)));
  }
}

void BitstreamWriter::begin() {
  PDR_CHECK(!begun_, "BitstreamWriter::begin", "begin() called twice");
  begun_ = true;
  put_word(kDummyWord);
  put_word(kDummyWord);
  put_word(kSyncWord);
}

void BitstreamWriter::write_idcode() {
  PDR_CHECK(begun_ && !ended_, "BitstreamWriter::write_idcode", "stream not open");
  put_header(ConfigReg::Idcode, 1);
  put_word(device_.idcode);
}

void BitstreamWriter::write_far(const FrameAddress& addr) {
  PDR_CHECK(begun_ && !ended_, "BitstreamWriter::write_far", "stream not open");
  PDR_CHECK(FrameMap(device_).valid(addr), "BitstreamWriter::write_far",
            "frame address " + addr.to_string() + " not on device " + device_.name);
  put_header(ConfigReg::Far, 1);
  put_word(addr.encode());
  crc_.update(std::span(out_).last(4));
}

void BitstreamWriter::write_fdri(std::span<const std::uint8_t> data) {
  PDR_CHECK(begun_ && !ended_, "BitstreamWriter::write_fdri", "stream not open");
  const auto frame_bytes = static_cast<std::size_t>(device_.frame_bytes());
  PDR_CHECK(!data.empty() && data.size() % frame_bytes == 0, "BitstreamWriter::write_fdri",
            "FDRI data must be a whole number of frames");
  put_header(ConfigReg::Fdri, data.size() / 4);
  // Frame bytes are already in stream (big-endian word) order.
  out_.insert(out_.end(), data.begin(), data.end());
  crc_.update(data);
  have_fdri_frame_ = true;
}

void BitstreamWriter::write_mfwr(const FrameAddress& addr) {
  PDR_CHECK(begun_ && !ended_, "BitstreamWriter::write_mfwr", "stream not open");
  PDR_CHECK(have_fdri_frame_, "BitstreamWriter::write_mfwr",
            "MFWR requires a preceding FDRI frame to repeat");
  write_far(addr);
  put_header(ConfigReg::Mfwr, 2);
  put_word(0);  // two dummy payload words, as in the real protocol
  put_word(0);
  crc_.update(std::span(out_).last(8));
}

void BitstreamWriter::end() {
  PDR_CHECK(begun_ && !ended_, "BitstreamWriter::end", "stream not open");
  ended_ = true;
  put_header(ConfigReg::Crc, 1);
  put_word(crc_.value());
  put_header(ConfigReg::Cmd, 1);
  put_word(static_cast<std::uint32_t>(ConfigCmd::Desync));
}

namespace {

/// The parser: checks `stream` whole against `device` and returns its
/// frame writes in order, each a view into `stream` or, for an MFWR after
/// an empty FDRI burst, into `zero_frame`.
std::vector<ValidatedStream::Frame> read_frames(const DeviceModel& device,
                                                std::span<const std::uint8_t> stream,
                                                std::vector<std::uint8_t>& zero_frame) {
  PDR_CHECK(stream.size() % 4 == 0, "ValidatedStream", "stream is not word aligned");
  const std::size_t total_words = stream.size() / 4;

  // Hunt for the sync word over leading dummy padding.
  std::size_t w = 0;
  while (w < total_words && word_at(stream, w) != kSyncWord) {
    PDR_CHECK(word_at(stream, w) == kDummyWord, "ValidatedStream",
              "garbage before sync word at word " + std::to_string(w));
    ++w;
  }
  PDR_CHECK(w < total_words, "ValidatedStream", "no sync word found");
  ++w;  // consume sync

  const FrameMap map(device);
  std::vector<ValidatedStream::Frame> frames;
  dsp::Crc32 crc;
  std::optional<FrameAddress> far;
  bool idcode_checked = false;
  bool crc_checked = false;
  const auto frame_words = static_cast<std::size_t>(device.frame_words());
  const auto frame_bytes = static_cast<std::size_t>(device.frame_bytes());
  std::span<const std::uint8_t> last_frame;  ///< most recent FDRI frame, for MFWR

  while (w < total_words) {
    const std::uint32_t header = word_at(stream, w++);
    PDR_CHECK((header >> 29) == 0b001u, "ValidatedStream",
              "expected type-1 packet header at word " + std::to_string(w - 1));
    PDR_CHECK(((header >> 27) & 0x3u) == 0b01u, "ValidatedStream", "only write packets are supported");
    const auto reg = static_cast<ConfigReg>((header >> 13) & 0x3fffu);
    std::size_t count = header & kType1CountMask;
    if (reg == ConfigReg::Fdri) {
      PDR_CHECK(count == 0, "ValidatedStream", "FDRI type-1 header must carry count 0");
      PDR_CHECK(w < total_words, "ValidatedStream", "truncated FDRI type-2 header");
      const std::uint32_t t2 = word_at(stream, w++);
      PDR_CHECK((t2 >> 29) == 0b010u, "ValidatedStream", "expected type-2 header after FDRI");
      count = t2 & kType2CountMask;
    }
    PDR_CHECK(w + count <= total_words, "ValidatedStream", "packet payload runs past end of stream");

    switch (reg) {
      case ConfigReg::Idcode: {
        PDR_CHECK(count == 1, "ValidatedStream", "IDCODE packet must have 1 word");
        const std::uint32_t id = word_at(stream, w++);
        PDR_CHECK(id == device.idcode, "ValidatedStream",
                  strprintf("IDCODE mismatch: stream 0x%08x, device %s has 0x%08x", id,
                            device.name.c_str(), device.idcode));
        idcode_checked = true;
        break;
      }
      case ConfigReg::Far: {
        PDR_CHECK(count == 1, "ValidatedStream", "FAR packet must have 1 word");
        crc.update(stream.subspan(w * 4, 4));
        far = FrameAddress::decode(word_at(stream, w++));
        PDR_CHECK(map.valid(*far), "ValidatedStream",
                  "FAR " + far->to_string() + " not on device " + device.name);
        break;
      }
      case ConfigReg::Fdri: {
        PDR_CHECK(idcode_checked, "ValidatedStream", "FDRI before IDCODE check");
        PDR_CHECK(far.has_value(), "ValidatedStream", "FDRI with no FAR set");
        PDR_CHECK(count % frame_words == 0, "ValidatedStream",
                  "FDRI word count is not a whole number of frames");
        const std::size_t n_frames = count / frame_words;
        // The burst's bytes are the frames' bytes in order: CRC it as one
        // span and view each frame in the stream, no copy.
        const auto burst = stream.subspan(w * 4, count * 4);
        w += count;
        crc.update(burst);
        for (std::size_t f = 0; f < n_frames; ++f) {
          frames.push_back({*far, burst.subspan(f * frame_bytes, frame_bytes), w * 4});
          if (f + 1 < n_frames) far = map.next(*far);
        }
        if (n_frames > 0) {
          last_frame = burst.last(frame_bytes);
        } else {
          zero_frame.assign(frame_bytes, 0);
          last_frame = zero_frame;
        }
        break;
      }
      case ConfigReg::Mfwr: {
        PDR_CHECK(count == 2, "ValidatedStream", "MFWR packet must have 2 words");
        PDR_CHECK(!last_frame.empty(), "ValidatedStream", "MFWR with no preceding FDRI frame");
        PDR_CHECK(far.has_value(), "ValidatedStream", "MFWR with no FAR set");
        crc.update(stream.subspan(w * 4, 8));
        w += 2;
        frames.push_back({*far, last_frame, w * 4});
        break;
      }
      case ConfigReg::Crc: {
        PDR_CHECK(count == 1, "ValidatedStream", "CRC packet must have 1 word");
        const std::uint32_t expect = word_at(stream, w++);
        PDR_CHECK(expect == crc.value(), "ValidatedStream",
                  strprintf("CRC mismatch: stream 0x%08x, computed 0x%08x", expect, crc.value()));
        crc_checked = true;
        break;
      }
      case ConfigReg::Cmd: {
        PDR_CHECK(count == 1, "ValidatedStream", "CMD packet must have 1 word");
        const auto cmd = static_cast<ConfigCmd>(word_at(stream, w++));
        if (cmd == ConfigCmd::Desync) {
          PDR_CHECK(crc_checked, "ValidatedStream", "DESYNC before CRC check");
          PDR_CHECK(w == total_words, "ValidatedStream", "trailing bytes after DESYNC");
          return frames;
        }
        break;
      }
      default:
        raise("ValidatedStream", "write to unsupported register");
    }
  }
  raise("ValidatedStream", "stream ended without DESYNC");
}

}  // namespace

std::shared_ptr<const ValidatedStream> ValidatedStream::parse(const DeviceModel& device,
                                                              std::span<const std::uint8_t> bytes) {
  std::vector<std::uint8_t> zero_frame;
  std::vector<Frame> frames = read_frames(device, bytes, zero_frame);
  return std::shared_ptr<const ValidatedStream>(
      new ValidatedStream(device, bytes, std::move(frames), std::move(zero_frame)));
}

ValidatedStream::ValidatedStream(const DeviceModel& device, std::span<const std::uint8_t> bytes,
                                 std::vector<Frame> frames, std::vector<std::uint8_t> zero_frame)
    : device_(device),
      bytes_(bytes.begin(), bytes.end()),
      zero_frame_(std::move(zero_frame)),
      frames_(std::move(frames)) {
  // The parser's views point into `bytes`: move each onto the handle's
  // copy. A view of the zero frame already points into zero_frame_, whose
  // buffer moved here with it.
  for (Frame& frame : frames_) {
    if (!zero_frame_.empty() && frame.data.data() == zero_frame_.data()) continue;
    const auto offset = static_cast<std::size_t>(frame.data.data() - bytes.data());
    frame.data = std::span(bytes_).subspan(offset, frame.data.size());
  }
}

std::vector<PacketAction> decode_packets(const ValidatedStream& stream) {
  // The handle passed the parse, so only the packet headers need decoding.
  const std::span<const std::uint8_t> bytes = stream.bytes();
  std::vector<PacketAction> actions;
  const std::size_t total_words = bytes.size() / 4;
  std::size_t w = 0;
  while (word_at(bytes, w) != kSyncWord) ++w;
  ++w;
  while (w < total_words) {
    const std::uint32_t header = word_at(bytes, w++);
    const auto reg = static_cast<ConfigReg>((header >> 13) & 0x3fffu);
    std::size_t count = header & kType1CountMask;
    if (reg == ConfigReg::Fdri) count = word_at(bytes, w++) & kType2CountMask;
    PacketAction action;
    action.reg = reg;
    action.payload.reserve(count);
    for (std::size_t i = 0; i < count; ++i) action.payload.push_back(word_at(bytes, w++));
    actions.push_back(std::move(action));
  }
  return actions;
}

std::string describe_bitstream(const ValidatedStream& stream) {
  return strprintf("%s bitstream: %s, %zu frames, crc ok", stream.device().name.c_str(),
                   human_bytes(stream.bytes().size()).c_str(), stream.frames().size());
}

}  // namespace pdr::fabric
