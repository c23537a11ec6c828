#include "fabric/bitstream.hpp"

#include <functional>

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

BitstreamReader::BitstreamReader(const DeviceModel& device, Sink& sink)
    : device_(device), frames_(device), sink_(sink) {}

ParseResult BitstreamReader::parse(std::span<const std::uint8_t> stream) {
  PDR_CHECK(stream.size() % 4 == 0, "BitstreamReader", "stream is not word aligned");
  const std::size_t total_words = stream.size() / 4;

  // Hunt for the sync word over leading dummy padding.
  std::size_t w = 0;
  while (w < total_words && word_at(stream, w) != kSyncWord) {
    PDR_CHECK(word_at(stream, w) == kDummyWord, "BitstreamReader",
              "garbage before sync word at word " + std::to_string(w));
    ++w;
  }
  PDR_CHECK(w < total_words, "BitstreamReader", "no sync word found");
  ++w;  // consume sync

  ParseResult result;
  dsp::Crc32 crc;
  std::optional<FrameAddress> far;
  bool idcode_checked = false;
  bool crc_checked = false;
  const auto frame_words = static_cast<std::size_t>(device_.frame_words());
  const auto frame_bytes = static_cast<std::size_t>(device_.frame_bytes());
  std::span<const std::uint8_t> last_frame;  ///< most recent FDRI frame, for MFWR
  std::vector<std::uint8_t> zero_frame;      ///< what an empty FDRI burst leaves for MFWR

  while (w < total_words) {
    const std::uint32_t header = word_at(stream, w++);
    PDR_CHECK((header >> 29) == 0b001u, "BitstreamReader",
              "expected type-1 packet header at word " + std::to_string(w - 1));
    PDR_CHECK(((header >> 27) & 0x3u) == 0b01u, "BitstreamReader", "only write packets are supported");
    const auto reg = static_cast<ConfigReg>((header >> 13) & 0x3fffu);
    std::size_t count = header & kType1CountMask;
    if (reg == ConfigReg::Fdri) {
      PDR_CHECK(count == 0, "BitstreamReader", "FDRI type-1 header must carry count 0");
      PDR_CHECK(w < total_words, "BitstreamReader", "truncated FDRI type-2 header");
      const std::uint32_t t2 = word_at(stream, w++);
      PDR_CHECK((t2 >> 29) == 0b010u, "BitstreamReader", "expected type-2 header after FDRI");
      count = t2 & kType2CountMask;
    }
    PDR_CHECK(w + count <= total_words, "BitstreamReader", "packet payload runs past end of stream");

    switch (reg) {
      case ConfigReg::Idcode: {
        PDR_CHECK(count == 1, "BitstreamReader", "IDCODE packet must have 1 word");
        const std::uint32_t id = word_at(stream, w++);
        PDR_CHECK(id == device_.idcode, "BitstreamReader",
                  strprintf("IDCODE mismatch: stream 0x%08x, device %s has 0x%08x", id,
                            device_.name.c_str(), device_.idcode));
        idcode_checked = true;
        break;
      }
      case ConfigReg::Far: {
        PDR_CHECK(count == 1, "BitstreamReader", "FAR packet must have 1 word");
        crc.update(stream.subspan(w * 4, 4));
        far = FrameAddress::decode(word_at(stream, w++));
        PDR_CHECK(frames_.valid(*far), "BitstreamReader",
                  "FAR " + far->to_string() + " not on device " + device_.name);
        break;
      }
      case ConfigReg::Fdri: {
        PDR_CHECK(idcode_checked, "BitstreamReader", "FDRI before IDCODE check");
        PDR_CHECK(far.has_value(), "BitstreamReader", "FDRI with no FAR set");
        PDR_CHECK(count % frame_words == 0, "BitstreamReader",
                  "FDRI word count is not a whole number of frames");
        const std::size_t n_frames = count / frame_words;
        // The burst's bytes are the frames' bytes in order: CRC it as one
        // span and hand the sink views into the stream, no copy.
        const auto burst = stream.subspan(w * 4, count * 4);
        w += count;
        crc.update(burst);
        for (std::size_t f = 0; f < n_frames; ++f) {
          sink_.write_frame(*far, burst.subspan(f * frame_bytes, frame_bytes));
          result.touched.push_back(*far);
          ++result.frames_written;
          if (f + 1 < n_frames) far = frames_.next(*far);
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
        PDR_CHECK(count == 2, "BitstreamReader", "MFWR packet must have 2 words");
        PDR_CHECK(!last_frame.empty(), "BitstreamReader", "MFWR with no preceding FDRI frame");
        PDR_CHECK(far.has_value(), "BitstreamReader", "MFWR with no FAR set");
        crc.update(stream.subspan(w * 4, 8));
        w += 2;
        sink_.write_frame(*far, last_frame);
        result.touched.push_back(*far);
        ++result.frames_written;
        break;
      }
      case ConfigReg::Crc: {
        PDR_CHECK(count == 1, "BitstreamReader", "CRC packet must have 1 word");
        const std::uint32_t expect = word_at(stream, w++);
        PDR_CHECK(expect == crc.value(), "BitstreamReader",
                  strprintf("CRC mismatch: stream 0x%08x, computed 0x%08x", expect, crc.value()));
        crc_checked = true;
        break;
      }
      case ConfigReg::Cmd: {
        PDR_CHECK(count == 1, "BitstreamReader", "CMD packet must have 1 word");
        const auto cmd = static_cast<ConfigCmd>(word_at(stream, w++));
        if (cmd == ConfigCmd::Desync) {
          PDR_CHECK(crc_checked, "BitstreamReader", "DESYNC before CRC check");
          PDR_CHECK(w == total_words, "BitstreamReader", "trailing bytes after DESYNC");
          return result;
        }
        break;
      }
      default:
        raise("BitstreamReader", "write to unsupported register");
    }
  }
  raise("BitstreamReader", "stream ended without DESYNC");
}

namespace {

/// Discards frame data; used for validation-only parses.
class NullSink : public BitstreamReader::Sink {
 public:
  void write_frame(const FrameAddress&, std::span<const std::uint8_t>) override {}
};

}  // namespace

ParseResult BitstreamReader::validate(const DeviceModel& device, std::span<const std::uint8_t> stream) {
  NullSink sink;
  return BitstreamReader(device, sink).parse(stream);
}

std::shared_ptr<const ValidatedStream> ValidatedStream::parse(const DeviceModel& device,
                                                              std::vector<std::uint8_t> bytes) {
  return std::shared_ptr<const ValidatedStream>(new ValidatedStream(device, std::move(bytes)));
}

ValidatedStream::ValidatedStream(const DeviceModel& device, std::vector<std::uint8_t> bytes)
    : device_(device), bytes_(std::move(bytes)) {
  // Keep the parser's view of every frame write. Each one points into the
  // stream, except the zero frame an empty FDRI burst leaves for MFWR: that
  // lives in the parser, so the handle keeps its own copy.
  struct Recorder : BitstreamReader::Sink {
    explicit Recorder(ValidatedStream& stream) : stream(stream) {}
    void write_frame(const FrameAddress& addr, std::span<const std::uint8_t> data) override {
      const std::less<const std::uint8_t*> before;
      const std::uint8_t* begin = stream.bytes_.data();
      if (before(data.data(), begin) || !before(data.data(), begin + stream.bytes_.size())) {
        if (stream.zero_frame_.empty()) stream.zero_frame_.assign(data.begin(), data.end());
        data = stream.zero_frame_;
      }
      stream.frames_.push_back(Frame{addr, data});
    }
    ValidatedStream& stream;
  };
  Recorder recorder(*this);
  result_ = BitstreamReader(device_, recorder).parse(bytes_);
}

void ValidatedStream::replay(BitstreamReader::Sink& sink) const {
  for (const Frame& frame : frames_) sink.write_frame(frame.addr, frame.data);
}

std::vector<PacketAction> decode_packets(const DeviceModel& device,
                                         std::span<const std::uint8_t> stream) {
  // Re-parse, recording one action per FAR/FDRI/IDCODE/CRC/CMD packet.
  // Structural validation is identical to BitstreamReader::parse (it is
  // BitstreamReader::parse), so reuse it, then decode headers lightly.
  BitstreamReader::validate(device, stream);  // throws if malformed

  std::vector<PacketAction> actions;
  const std::size_t total_words = stream.size() / 4;
  std::size_t w = 0;
  while (word_at(stream, w) != kSyncWord) ++w;
  ++w;
  while (w < total_words) {
    const std::uint32_t header = word_at(stream, w++);
    const auto reg = static_cast<ConfigReg>((header >> 13) & 0x3fffu);
    std::size_t count = header & kType1CountMask;
    if (reg == ConfigReg::Fdri) count = word_at(stream, w++) & kType2CountMask;
    PacketAction action;
    action.reg = reg;
    action.payload.reserve(count);
    for (std::size_t i = 0; i < count; ++i) action.payload.push_back(word_at(stream, w++));
    actions.push_back(std::move(action));
  }
  return actions;
}

std::string describe_bitstream(const DeviceModel& device, std::span<const std::uint8_t> stream) {
  const ParseResult r = BitstreamReader::validate(device, stream);
  return strprintf("%s bitstream: %s, %d frames, crc ok", device.name.c_str(),
                   human_bytes(stream.size()).c_str(), r.frames_written);
}

}  // namespace pdr::fabric
