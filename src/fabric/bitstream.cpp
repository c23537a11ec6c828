#include "fabric/bitstream.hpp"

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

/// Where the listing run of the parser puts the frame writes: the
/// handle's frame list, and its zero frame for an MFWR after an empty
/// FDRI burst.
struct Listing {
  std::vector<ValidatedStream::Frame>& frames;
  std::vector<std::uint8_t>& zero_frame;
};

// Returns the failure message of a rejected stream from read_frames.
#define PDR_EXPECT(cond, ...)                                                  \
  do {                                                                         \
    if (!(cond)) return strprintf("ValidatedStream: " __VA_ARGS__);            \
  } while (false)

/// The parser. Checks `stream` whole against `device` and returns the
/// failure message, or "" when it passes, with the number of frame writes
/// in `frame_count`. Run again with a `listing` over a stream that passed
/// (nothing can fail then, so the CRC is not summed twice), it lists the
/// frame writes in order, each a view into `stream` or, for an MFWR after
/// an empty FDRI burst, into the listing's zero frame. A frame's index is
/// the FAR's, advanced by one per frame of a burst.
std::string read_frames(const DeviceModel& device, std::span<const std::uint8_t> stream,
                        std::size_t& frame_count, const Listing* listing) {
  PDR_EXPECT(stream.size() % 4 == 0, "stream is not word aligned");
  const std::size_t total_words = stream.size() / 4;

  // Hunt for the sync word over leading dummy padding.
  std::size_t w = 0;
  while (w < total_words && word_at(stream, w) != kSyncWord) {
    PDR_EXPECT(word_at(stream, w) == kDummyWord, "garbage before sync word at word %zu", w);
    ++w;
  }
  PDR_EXPECT(w < total_words, "no sync word found");
  ++w;  // consume sync

  const FrameMap map(device);
  const auto total_frames = static_cast<std::size_t>(device.total_frames());
  dsp::Crc32 crc;
  bool have_far = false;
  int index = 0;  ///< the FAR's linear frame index
  bool idcode_checked = false;
  bool crc_checked = false;
  const auto frame_words = static_cast<std::size_t>(device.frame_words());
  const auto frame_bytes = static_cast<std::size_t>(device.frame_bytes());
  bool have_last_frame = false;
  std::span<const std::uint8_t> last_frame;  ///< most recent FDRI frame, for MFWR
  frame_count = 0;

  while (w < total_words) {
    const std::uint32_t header = word_at(stream, w++);
    PDR_EXPECT((header >> 29) == 0b001u, "expected type-1 packet header at word %zu", w - 1);
    PDR_EXPECT(((header >> 27) & 0x3u) == 0b01u, "only write packets are supported");
    const auto reg = static_cast<ConfigReg>((header >> 13) & 0x3fffu);
    std::size_t count = header & kType1CountMask;
    if (reg == ConfigReg::Fdri) {
      PDR_EXPECT(count == 0, "FDRI type-1 header must carry count 0");
      PDR_EXPECT(w < total_words, "truncated FDRI type-2 header");
      const std::uint32_t t2 = word_at(stream, w++);
      PDR_EXPECT((t2 >> 29) == 0b010u, "expected type-2 header after FDRI");
      count = t2 & kType2CountMask;
    }
    PDR_EXPECT(w + count <= total_words, "packet payload runs past end of stream");

    switch (reg) {
      case ConfigReg::Idcode: {
        PDR_EXPECT(count == 1, "IDCODE packet must have 1 word");
        const std::uint32_t id = word_at(stream, w++);
        PDR_EXPECT(id == device.idcode, "IDCODE mismatch: stream 0x%08x, device %s has 0x%08x", id,
                   device.name.c_str(), device.idcode);
        idcode_checked = true;
        break;
      }
      case ConfigReg::Far: {
        PDR_EXPECT(count == 1, "FAR packet must have 1 word");
        if (listing == nullptr) crc.update(stream.subspan(w * 4, 4));
        const std::uint32_t word = word_at(stream, w++);
        PDR_EXPECT(((word >> 24) & 0x3u) <= 2, "unknown block type in FAR 0x%08x", word);
        const FrameAddress far = FrameAddress::decode(word);
        PDR_EXPECT(map.valid(far), "FAR %s not on device %s", far.to_string().c_str(),
                   device.name.c_str());
        index = map.linear_index(far);
        have_far = true;
        break;
      }
      case ConfigReg::Fdri: {
        PDR_EXPECT(idcode_checked, "FDRI before IDCODE check");
        PDR_EXPECT(have_far, "FDRI with no FAR set");
        PDR_EXPECT(count % frame_words == 0, "FDRI word count is not a whole number of frames");
        const std::size_t n_frames = count / frame_words;
        PDR_EXPECT(static_cast<std::size_t>(index) + n_frames <= total_frames,
                   "FDRI burst runs past the last frame of device %s", device.name.c_str());
        // The burst's bytes are the frames' bytes in order: CRC it as one
        // span and view each frame in the stream, no copy.
        const auto burst = stream.subspan(w * 4, count * 4);
        w += count;
        if (listing == nullptr) crc.update(burst);
        for (std::size_t f = 0; f < n_frames; ++f) {
          if (listing != nullptr)
            listing->frames.push_back({index, burst.subspan(f * frame_bytes, frame_bytes), w * 4});
          if (f + 1 < n_frames) ++index;
        }
        frame_count += n_frames;
        if (n_frames > 0) {
          last_frame = burst.last(frame_bytes);
        } else if (listing != nullptr) {
          listing->zero_frame.assign(frame_bytes, 0);
          last_frame = listing->zero_frame;
        }
        have_last_frame = true;
        break;
      }
      case ConfigReg::Mfwr: {
        PDR_EXPECT(count == 2, "MFWR packet must have 2 words");
        PDR_EXPECT(have_last_frame, "MFWR with no preceding FDRI frame");
        PDR_EXPECT(have_far, "MFWR with no FAR set");
        if (listing == nullptr) crc.update(stream.subspan(w * 4, 8));
        w += 2;
        if (listing != nullptr)
          listing->frames.push_back({index, last_frame, w * 4});
        ++frame_count;
        break;
      }
      case ConfigReg::Crc: {
        PDR_EXPECT(count == 1, "CRC packet must have 1 word");
        const std::uint32_t expect = word_at(stream, w++);
        PDR_EXPECT(listing != nullptr || expect == crc.value(),
                   "CRC mismatch: stream 0x%08x, computed 0x%08x", expect, crc.value());
        crc_checked = true;
        break;
      }
      case ConfigReg::Cmd: {
        PDR_EXPECT(count == 1, "CMD packet must have 1 word");
        const auto cmd = static_cast<ConfigCmd>(word_at(stream, w++));
        if (cmd == ConfigCmd::Desync) {
          PDR_EXPECT(crc_checked, "DESYNC before CRC check");
          PDR_EXPECT(w == total_words, "trailing bytes after DESYNC");
          return {};
        }
        break;
      }
      default:
        return "ValidatedStream: write to unsupported register";
    }
  }
  return "ValidatedStream: stream ended without DESYNC";
}

#undef PDR_EXPECT

}  // namespace

std::shared_ptr<const ValidatedStream> ValidatedStream::parse(const DeviceModel& device,
                                                              std::span<const std::uint8_t> bytes) {
  std::string error;
  auto handle = try_parse(device, bytes, error);
  if (handle == nullptr) throw Error(std::move(error));
  return handle;
}

std::shared_ptr<const ValidatedStream> ValidatedStream::try_parse(
    const DeviceModel& device, std::span<const std::uint8_t> bytes, std::string& error) {
  std::size_t frame_count = 0;
  error = read_frames(device, bytes, frame_count, nullptr);
  if (!error.empty()) return nullptr;
  // The stream passed: copy it into the handle and list the frame writes
  // as views into the copy.
  std::shared_ptr<ValidatedStream> handle(new ValidatedStream(device, bytes));
  handle->frames_.reserve(frame_count);
  const Listing listing{handle->frames_, handle->zero_frame_};
  read_frames(device, handle->bytes_, frame_count, &listing);
  return handle;
}

ValidatedStream::ValidatedStream(const DeviceModel& device, std::span<const std::uint8_t> bytes)
    : device_(device), bytes_(bytes.begin(), bytes.end()) {}

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
