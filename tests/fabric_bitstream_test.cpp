#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>

#include "fabric/bitstream.hpp"
#include "fabric/config_memory.hpp"
#include "fabric/config_port.hpp"
#include "mccdma/case_study.hpp"
#include "synth/bitgen.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace pdr::fabric {
namespace {

std::vector<std::uint8_t> frame_data(const DeviceModel& d, std::uint8_t fill) {
  return std::vector<std::uint8_t>(static_cast<std::size_t>(d.frame_bytes()), fill);
}

std::vector<std::uint8_t> small_stream(const DeviceModel& d) {
  BitstreamWriter w(d);
  w.begin();
  w.write_idcode();
  w.write_far(FrameAddress{BlockType::Clb, 2, 0});
  w.write_fdri(frame_data(d, 0xab));
  w.end();
  return w.take();
}

TEST(BitstreamWriter, ProducesWordAlignedStream) {
  const DeviceModel d = xc2v2000();
  const auto stream = small_stream(d);
  EXPECT_EQ(stream.size() % 4, 0u);
  EXPECT_GT(stream.size(), static_cast<std::size_t>(d.frame_bytes()));
}

TEST(BitstreamWriter, SyncWordPresent) {
  const auto stream = small_stream(xc2v2000());
  // Words: dummy, dummy, sync.
  EXPECT_EQ(stream[8], 0xaa);
  EXPECT_EQ(stream[9], 0x99);
  EXPECT_EQ(stream[10], 0x55);
  EXPECT_EQ(stream[11], 0x66);
}

TEST(BitstreamWriter, ApiMisuseThrows) {
  const DeviceModel d = xc2v2000();
  BitstreamWriter w(d);
  EXPECT_THROW(w.write_idcode(), pdr::Error);  // before begin()
  w.begin();
  EXPECT_THROW(w.begin(), pdr::Error);  // double begin
  EXPECT_THROW(w.write_far(FrameAddress{BlockType::Clb, 999, 0}), pdr::Error);
  std::vector<std::uint8_t> misaligned(static_cast<std::size_t>(d.frame_bytes()) - 1);
  EXPECT_THROW(w.write_fdri(misaligned), pdr::Error);
  w.end();
  EXPECT_THROW(w.end(), pdr::Error);  // double end
}

TEST(BitstreamReader, RoundTripWritesFrames) {
  const DeviceModel d = xc2v2000();
  const auto handle = ValidatedStream::parse(d, small_stream(d));
  ASSERT_EQ(handle->frames().size(), 1u);
  const FrameAddress addr = handle->frames()[0].addr;
  EXPECT_EQ(addr, (FrameAddress{BlockType::Clb, 2, 0}));
  ConfigMemory mem(d);
  ConfigPort port(PortKind::Icap, ConfigPort::default_timing(PortKind::Icap), mem);
  port.load(*handle, "mod_a");
  EXPECT_EQ(mem.read_frame(addr)[0], 0xab);
  EXPECT_EQ(mem.frame_owner(addr), "mod_a");
}

TEST(BitstreamReader, MultiFrameBurstAutoIncrementsFar) {
  const DeviceModel d = xc2v2000();
  BitstreamWriter w(d);
  w.begin();
  w.write_idcode();
  w.write_far(FrameAddress{BlockType::Clb, 0, 0});
  std::vector<std::uint8_t> burst;
  for (int f = 0; f < 5; ++f) {
    const auto fd = frame_data(d, static_cast<std::uint8_t>(f));
    burst.insert(burst.end(), fd.begin(), fd.end());
  }
  w.write_fdri(burst);
  w.end();

  const auto handle = ValidatedStream::parse(d, w.bytes());
  ASSERT_EQ(handle->frames().size(), 5u);
  for (int f = 0; f < 5; ++f) {
    const ValidatedStream::Frame& frame = handle->frames()[static_cast<std::size_t>(f)];
    EXPECT_EQ(frame.addr, (FrameAddress{BlockType::Clb, 0, static_cast<std::uint16_t>(f)}));
    EXPECT_EQ(frame.data[0], static_cast<std::uint8_t>(f));
    EXPECT_EQ(frame.end, handle->frames().back().end);  // one packet wrote them all
  }
}

TEST(BitstreamReader, DetectsCrcCorruption) {
  const DeviceModel d = xc2v2000();
  auto stream = small_stream(d);
  stream[stream.size() / 2] ^= 0x01;  // flip a payload bit
  EXPECT_THROW(ValidatedStream::parse(d, stream), pdr::Error);
}

TEST(BitstreamReader, DetectsWrongDevice) {
  const auto stream = small_stream(xc2v2000());
  EXPECT_THROW(ValidatedStream::parse(xc2v1000(), stream), pdr::Error);
}

TEST(BitstreamReader, DetectsTruncation) {
  const DeviceModel d = xc2v2000();
  auto stream = small_stream(d);
  stream.resize(stream.size() - 8);
  EXPECT_THROW(ValidatedStream::parse(d, stream), pdr::Error);
}

TEST(BitstreamReader, DetectsGarbageBeforeSync) {
  const DeviceModel d = xc2v2000();
  auto stream = small_stream(d);
  stream[0] = 0x12;  // corrupt leading dummy word
  EXPECT_THROW(ValidatedStream::parse(d, stream), pdr::Error);
}

TEST(BitstreamReader, DetectsMisalignedStream) {
  const DeviceModel d = xc2v2000();
  auto stream = small_stream(d);
  stream.push_back(0x00);
  EXPECT_THROW(ValidatedStream::parse(d, stream), pdr::Error);
}

TEST(BitstreamReader, DetectsTrailingBytes) {
  const DeviceModel d = xc2v2000();
  auto stream = small_stream(d);
  for (int i = 0; i < 4; ++i) stream.push_back(0xff);
  EXPECT_THROW(ValidatedStream::parse(d, stream), pdr::Error);
}

TEST(BitstreamReader, EmptyStreamRejected) {
  EXPECT_THROW(ValidatedStream::parse(xc2v2000(), {}), pdr::Error);
}

TEST(DecodePackets, ListsActions) {
  const DeviceModel d = xc2v2000();
  const auto actions = decode_packets(*ValidatedStream::parse(d, small_stream(d)));
  ASSERT_EQ(actions.size(), 5u);  // idcode, far, fdri, crc, cmd
  EXPECT_EQ(actions[0].reg, ConfigReg::Idcode);
  EXPECT_EQ(actions[1].reg, ConfigReg::Far);
  EXPECT_EQ(actions[2].reg, ConfigReg::Fdri);
  EXPECT_EQ(actions[2].payload.size(), static_cast<std::size_t>(d.frame_words()));
  EXPECT_EQ(actions[3].reg, ConfigReg::Crc);
  EXPECT_EQ(actions[4].reg, ConfigReg::Cmd);
}

TEST(DescribeBitstream, MentionsFramesAndCrc) {
  const DeviceModel d = xc2v2000();
  const std::string s = describe_bitstream(*ValidatedStream::parse(d, small_stream(d)));
  EXPECT_NE(s.find("1 frames"), std::string::npos);
  EXPECT_NE(s.find("crc ok"), std::string::npos);
}

// --- config memory -------------------------------------------------------------

TEST(ConfigMemory, TracksOwnership) {
  const DeviceModel d = xc2v2000();
  ConfigMemory mem(d);
  const FrameAddress a{BlockType::Clb, 0, 0};
  EXPECT_EQ(mem.frame_owner(a), "");
  mem.set_writer_tag("x");
  mem.write_frame(a, frame_data(d, 1));
  EXPECT_EQ(mem.frame_owner(a), "x");
  const FrameAddress addrs[] = {a};
  EXPECT_TRUE(mem.region_owned_by(addrs, "x"));
  EXPECT_FALSE(mem.region_owned_by(addrs, "y"));
}

TEST(ConfigMemory, RejectsWrongFrameSize) {
  ConfigMemory mem(xc2v2000());
  std::vector<std::uint8_t> tiny(4);
  EXPECT_THROW(mem.write_frame(FrameAddress{BlockType::Clb, 0, 0}, tiny), pdr::Error);
}

TEST(ConfigMemory, FlipBitBoundsChecked) {
  // Regression: out-of-range byte/bit indices must throw pdr::Error, not
  // write past the frame buffer (the fault injector leans on this).
  const DeviceModel d = xc2v2000();
  ConfigMemory mem(d);
  const FrameAddress a{BlockType::Clb, 0, 0};
  EXPECT_THROW(mem.flip_bit(a, -1, 0), pdr::Error);
  EXPECT_THROW(mem.flip_bit(a, d.frame_bytes(), 0), pdr::Error);
  EXPECT_THROW(mem.flip_bit(a, 0, -1), pdr::Error);
  EXPECT_THROW(mem.flip_bit(a, 0, 8), pdr::Error);
  EXPECT_EQ(mem.upsets(), 0);  // failed flips never count

  const std::uint8_t before = mem.read_frame(a)[10];
  mem.flip_bit(a, 10, 3);
  EXPECT_EQ(mem.read_frame(a)[10], before ^ (1u << 3));
  mem.flip_bit(a, 10, 3);  // a second flip restores the bit
  EXPECT_EQ(mem.read_frame(a)[10], before);
  EXPECT_EQ(mem.upsets(), 2);
}

int set_bits(std::span<const std::uint8_t> frame) {
  int n = 0;
  for (const std::uint8_t b : frame) n += std::popcount(b);
  return n;
}

TEST(ConfigMemory, AdjacentFramesKeepTheirOwnBytesAndUnwrittenFramesReadZero) {
  const DeviceModel d = xc2v2000();
  const FrameMap map(d);
  const FrameAddress a{BlockType::Clb, 5, 3};
  const FrameAddress b = map.next(a);
  const FrameAddress unwritten = map.next(b);
  std::vector<std::uint8_t> pattern_a(static_cast<std::size_t>(d.frame_bytes()));
  std::vector<std::uint8_t> pattern_b(pattern_a.size());
  for (std::size_t i = 0; i < pattern_a.size(); ++i) {
    pattern_a[i] = static_cast<std::uint8_t>(i * 7 + 1);
    pattern_b[i] = static_cast<std::uint8_t>(0xff - i * 3);
  }
  // Each round's memory may reuse the storage of the one before it, which
  // ends with every frame written to 0xff: a never-written frame must
  // still read, and flip, as zeros.
  for (int round = 0; round < 3; ++round) {
    ConfigMemory mem(d);
    EXPECT_EQ(set_bits(mem.read_frame(a)), 0) << "round " << round;
    mem.write_frame(a, pattern_a);
    mem.write_frame(b, pattern_b);
    const auto read_a = mem.read_frame(a);
    EXPECT_TRUE(std::equal(read_a.begin(), read_a.end(), pattern_a.begin(), pattern_a.end()));
    const auto read_b = mem.read_frame(b);
    EXPECT_TRUE(std::equal(read_b.begin(), read_b.end(), pattern_b.begin(), pattern_b.end()));
    EXPECT_EQ(mem.read_frame(unwritten).size(), pattern_a.size());
    EXPECT_EQ(set_bits(mem.read_frame(unwritten)), 0) << "round " << round;

    mem.flip_bit(unwritten, 17, 5);
    const auto flipped = mem.read_frame(unwritten);
    EXPECT_EQ(set_bits(flipped), 1) << "round " << round;
    EXPECT_EQ(flipped[17], 1u << 5);
    EXPECT_EQ(mem.frame_owner(unwritten), "");  // an upset is not a write
    EXPECT_EQ(mem.frames_written(), 2);
    EXPECT_EQ(mem.upsets(), 1);

    const auto ones = frame_data(d, 0xff);
    for (int i = 0; i < map.total_frames(); ++i) mem.write_frame(map.from_linear(i), ones);
  }
}

// --- config port -----------------------------------------------------------------

TEST(ConfigPort, DefaultTimings) {
  EXPECT_EQ(ConfigPort::default_timing(PortKind::Icap).width_bits, 8);
  EXPECT_EQ(ConfigPort::default_timing(PortKind::Jtag).width_bits, 1);
}

TEST(ConfigPort, TransferTimeMatchesBandwidth) {
  const DeviceModel d = xc2v2000();
  ConfigMemory mem(d);
  ConfigPort port(PortKind::SelectMap, PortTiming{8, 50e6, 0}, mem);
  // 50 MB/s -> 1000 bytes = 20 us.
  EXPECT_EQ(port.transfer_time(1000), 20000);
  EXPECT_DOUBLE_EQ(port.bandwidth_bytes_per_s(), 50e6);
}

TEST(ConfigPort, JtagIsSerial) {
  const DeviceModel d = xc2v2000();
  ConfigMemory mem(d);
  ConfigPort jtag(PortKind::Jtag, PortTiming{1, 33e6, 0}, mem);
  ConfigPort icap(PortKind::Icap, PortTiming{8, 66e6, 0}, mem);
  EXPECT_GT(jtag.transfer_time(1000), 8 * icap.transfer_time(1000) / 2);
}

TEST(ConfigPort, LoadAppliesFramesAndAccounts) {
  const DeviceModel d = xc2v2000();
  ConfigMemory mem(d);
  ConfigPort port(PortKind::Icap, ConfigPort::default_timing(PortKind::Icap), mem);
  const auto report = port.load(*ValidatedStream::parse(d, small_stream(d)), "mod_b");
  EXPECT_EQ(report.frames_written, 1);
  EXPECT_GT(report.duration, 0);
  EXPECT_EQ(mem.frame_owner(FrameAddress{BlockType::Clb, 2, 0}), "mod_b");
  EXPECT_EQ(port.loads(), 1);
  EXPECT_EQ(port.total_bytes(), report.stream_bytes);
}

TEST(ConfigPort, LoadRejectsCorruptStream) {
  // The port takes only a handle, and a corrupt stream never becomes one:
  // the parse that would make it throws, and nothing reaches the port.
  const DeviceModel d = xc2v2000();
  ConfigMemory mem(d);
  ConfigPort port(PortKind::Icap, ConfigPort::default_timing(PortKind::Icap), mem);
  auto stream = small_stream(d);
  stream[20] ^= 0xff;
  EXPECT_THROW(port.load(*ValidatedStream::parse(d, stream), "bad"), pdr::Error);
  EXPECT_EQ(mem.frames_written(), 0);
  EXPECT_EQ(port.loads(), 0);
}

TEST(ConfigPort, FaultHookAbortsMidStream) {
  // A fault hook returning a fraction in (0,1) cuts the transfer there:
  // the load throws, the complete FDRI bursts before the cut stay
  // committed, and both the abort and its bytes are accounted. Two
  // non-adjacent columns give the stream two bursts, so a cut past the
  // midpoint lands inside the second one.
  const DeviceModel d = xc2v2000();
  const FrameMap map(d);
  auto frames = map.clb_column_frames(3);
  const auto second = map.clb_column_frames(10);
  frames.insert(frames.end(), second.begin(), second.end());
  const auto stream = ValidatedStream::parse(d, synth::generate_partial_bitstream(d, frames, 11));

  ConfigMemory mem(d);
  ConfigPort port(PortKind::Icap, ConfigPort::default_timing(PortKind::Icap), mem);
  int calls = 0;
  port.set_fault_hook([&calls](Bytes, const std::string&) {
    return ++calls == 1 ? 0.6 : -1.0;
  });
  EXPECT_THROW(port.load(*stream, "mod"), pdr::Error);
  EXPECT_EQ(port.aborted_loads(), 1);
  EXPECT_EQ(port.loads(), 1);
  // Roughly half the stream went through before the cut.
  EXPECT_GT(port.total_bytes(), 0u);
  EXPECT_LT(port.total_bytes(), stream->bytes().size());
  const int committed = mem.frames_written();
  EXPECT_GT(committed, 0);
  EXPECT_LT(committed, static_cast<int>(frames.size()));

  // The hook passed (-1): the retry succeeds and repairs the region.
  const auto report = port.load(*stream, "mod");
  EXPECT_EQ(report.frames_written, static_cast<int>(frames.size()));
  EXPECT_TRUE(mem.region_owned_by(frames, "mod"));
  EXPECT_EQ(port.aborted_loads(), 1);
  EXPECT_EQ(port.loads(), 2);
}

// --- multi-frame writes (compression) ----------------------------------------------

TEST(Mfwr, UniformBitstreamLoadsAllFrames) {
  const DeviceModel d = xc2v2000();
  const FrameMap map(d);
  const auto frames = map.frames_for_clb_range(43, 47);
  const auto stream = ValidatedStream::parse(d, synth::generate_uniform_bitstream(d, frames, 0x00));

  ConfigMemory mem(d);
  ConfigPort port(PortKind::Icap, ConfigPort::default_timing(PortKind::Icap), mem);
  const auto report = port.load(*stream, "blank");
  EXPECT_EQ(report.frames_written, static_cast<int>(frames.size()));
  EXPECT_TRUE(mem.region_owned_by(frames, "blank"));
  for (const auto& f : {frames.front(), frames.back()}) {
    const auto data = mem.read_frame(f);
    for (std::size_t b = 0; b < data.size(); b += 101) EXPECT_EQ(data[b], 0x00);
  }
}

TEST(Mfwr, CompressionRatioIsLarge) {
  const DeviceModel d = xc2v2000();
  const FrameMap map(d);
  const auto frames = map.frames_for_clb_range(43, 47);  // 110 frames
  const auto full = synth::generate_partial_bitstream(d, frames, 7);
  const auto compressed = synth::generate_uniform_bitstream(d, frames, 0xff);
  EXPECT_GT(full.size(), 10 * compressed.size());
}

TEST(Mfwr, RepeatsArbitraryFill) {
  const DeviceModel d = xc2v2000();
  const FrameMap map(d);
  const auto frames = map.clb_column_frames(3);
  ConfigMemory mem(d);
  ConfigPort port(PortKind::Icap, ConfigPort::default_timing(PortKind::Icap), mem);
  port.load(*ValidatedStream::parse(d, synth::generate_uniform_bitstream(d, frames, 0x5a)), "fill");
  EXPECT_EQ(mem.read_frame(frames[5])[100], 0x5a);
}

TEST(Mfwr, WriterRequiresPrecedingFdri) {
  const DeviceModel d = xc2v2000();
  BitstreamWriter w(d);
  w.begin();
  w.write_idcode();
  EXPECT_THROW(w.write_mfwr(FrameAddress{BlockType::Clb, 0, 0}), pdr::Error);
}

TEST(Mfwr, ReaderRejectsMfwrBeforeFdri) {
  // Hand-craft an invalid stream: FAR + MFWR without any FDRI.
  const DeviceModel d = xc2v2000();
  BitstreamWriter w(d);
  w.begin();
  w.write_idcode();
  w.write_far(FrameAddress{BlockType::Clb, 0, 0});
  w.write_fdri(frame_data(d, 0));
  w.write_mfwr(FrameAddress{BlockType::Clb, 1, 0});
  w.end();
  auto stream = w.take();
  // Valid as written; now corrupt it so structure still parses but CRC breaks.
  stream[stream.size() / 2] ^= 1;
  EXPECT_THROW(ValidatedStream::parse(d, stream), pdr::Error);
}

TEST(Mfwr, DecodePacketsSeesMfwr) {
  const DeviceModel d = xc2v2000();
  const FrameMap map(d);
  const auto frames = map.clb_column_frames(0);
  const auto actions =
      decode_packets(*ValidatedStream::parse(d, synth::generate_uniform_bitstream(d, frames, 0)));
  int mfwr = 0;
  for (const auto& a : actions)
    if (a.reg == ConfigReg::Mfwr) ++mfwr;
  EXPECT_EQ(mfwr, static_cast<int>(frames.size()) - 1);
}

// --- synthetic bitgen roundtrip ---------------------------------------------------

TEST(Bitgen, PartialBitstreamRoundTripsThroughPort) {
  const DeviceModel d = xc2v2000();
  const FrameMap map(d);
  const auto frames = map.frames_for_clb_range(43, 47);
  const auto stream =
      ValidatedStream::parse(d, synth::generate_partial_bitstream(d, frames, 0xdeadbeef));

  ConfigMemory mem(d);
  ConfigPort port(PortKind::Icap, ConfigPort::default_timing(PortKind::Icap), mem);
  const auto report = port.load(*stream, "op_dyn");
  EXPECT_EQ(report.frames_written, static_cast<int>(frames.size()));
  EXPECT_TRUE(mem.region_owned_by(frames, "op_dyn"));

  // Payload must match the deterministic generator.
  const auto f0 = mem.read_frame(frames[0]);
  for (int b = 0; b < 16; ++b)
    EXPECT_EQ(f0[static_cast<std::size_t>(b)],
              synth::frame_payload_byte(0xdeadbeef, map.linear_index(frames[0]), b));
}

TEST(Bitgen, PortLoadOfCaseStudyStreamsMatchesFramePayloadBytes) {
  // A handle gives the port views into the stream; what lands in
  // configuration memory must be exactly the generator's payload bytes,
  // for every variant (FDRI bursts) and for a blank (MFWR repeats).
  const synth::DesignBundle& bundle = mccdma::shared_case_study().bundle;
  const FrameMap map(bundle.device);
  ConfigMemory mem(bundle.device);
  ConfigPort port(PortKind::Icap, ConfigPort::default_timing(PortKind::Icap), mem);
  int variants = 0;
  for (const auto& [region, artifacts] : bundle.dynamic_variants) {
    for (const auto& v : artifacts) {
      port.load(*v.stream, v.name);
      for (const auto& addr : v.placement.frames) {
        const auto data = mem.read_frame(addr);
        for (int b = 0; b < bundle.device.frame_bytes(); ++b)
          ASSERT_EQ(data[static_cast<std::size_t>(b)],
                    synth::frame_payload_byte(v.netlist_hash, map.linear_index(addr), b))
              << v.name << " frame " << addr.to_string() << " byte " << b;
        EXPECT_EQ(mem.frame_owner(addr), v.name);
      }
      ++variants;
    }
    const auto frames = bundle.floorplan.region_frames(region);
    const auto blank = ValidatedStream::parse(
        bundle.device, synth::generate_uniform_bitstream(bundle.device, frames, 0));
    EXPECT_EQ(port.load(*blank, "blank").frames_written, static_cast<int>(frames.size()));
    for (const auto& addr : frames) {
      const auto data = mem.read_frame(addr);
      EXPECT_TRUE(std::all_of(data.begin(), data.end(), [](std::uint8_t x) { return x == 0; }))
          << "frame " << addr.to_string() << " not blanked";
      EXPECT_EQ(mem.frame_owner(addr), "blank");
    }
  }
  EXPECT_GE(variants, 2);
}

TEST(Bitgen, DifferentHashesDifferentPayload) {
  const DeviceModel d = xc2v2000();
  const FrameMap map(d);
  const auto frames = map.clb_column_frames(0);
  const auto a = synth::generate_partial_bitstream(d, frames, 1);
  const auto b = synth::generate_partial_bitstream(d, frames, 2);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_NE(a, b);
}

TEST(Bitgen, SameInputsSameStream) {
  const DeviceModel d = xc2v2000();
  const FrameMap map(d);
  const auto frames = map.clb_column_frames(3);
  EXPECT_EQ(synth::generate_partial_bitstream(d, frames, 7),
            synth::generate_partial_bitstream(d, frames, 7));
}

TEST(Bitgen, FullBitstreamCoversDevice) {
  const DeviceModel d = xc2v1000();  // smaller device keeps this quick
  const auto stream = synth::generate_full_bitstream(d, 42);
  EXPECT_EQ(ValidatedStream::parse(d, stream)->frames().size(),
            static_cast<std::size_t>(d.total_frames()));
}

// --- validated streams ------------------------------------------------------------

/// One frame write, kept by value.
struct Write {
  FrameAddress addr;
  std::vector<std::uint8_t> data;
  std::size_t end = 0;  ///< byte offset just past the packet that wrote it
  bool operator==(const Write&) const = default;
};

/// The handle's frame writes, copied.
std::vector<Write> writes_of(const ValidatedStream& stream) {
  std::vector<Write> writes;
  for (const ValidatedStream::Frame& f : stream.frames())
    writes.push_back({f.addr, std::vector<std::uint8_t>(f.data.begin(), f.data.end()), f.end});
  return writes;
}

/// The frame writes the packet list describes, rebuilt from
/// decode_packets alone: FAR sets the address, FDRI frames auto-increment
/// through FrameMap::next, MFWR repeats the last FDRI frame (a zero frame
/// after an empty burst). Each packet's end offset is summed from the
/// words before it: the pad words up to and including sync, then per
/// packet its header (two for FDRI) and payload.
std::vector<Write> packet_writes(const ValidatedStream& stream) {
  const DeviceModel& d = stream.device();
  const FrameMap map(d);
  const auto frame_words = static_cast<std::size_t>(d.frame_words());
  const auto bytes = stream.bytes();
  const std::uint8_t sync[] = {0xaa, 0x99, 0x55, 0x66};
  std::size_t offset = 0;
  while (!std::equal(std::begin(sync), std::end(sync), bytes.begin() + offset)) offset += 4;
  offset += 4;
  std::optional<FrameAddress> far;
  std::vector<std::uint8_t> last;
  std::vector<Write> writes;
  for (const PacketAction& a : decode_packets(stream)) {
    offset += 4 * (1 + (a.reg == ConfigReg::Fdri ? 1 : 0) + a.payload.size());
    switch (a.reg) {
      case ConfigReg::Far:
        far = FrameAddress::decode(a.payload.at(0));
        break;
      case ConfigReg::Fdri: {
        const std::size_t n = a.payload.size() / frame_words;
        last.assign(static_cast<std::size_t>(d.frame_bytes()), 0);
        for (std::size_t f = 0; f < n; ++f) {
          last.clear();
          for (std::size_t i = 0; i < frame_words; ++i) {
            const std::uint32_t word = a.payload[f * frame_words + i];
            for (const int shift : {24, 16, 8, 0})
              last.push_back(static_cast<std::uint8_t>(word >> shift));
          }
          writes.push_back({far.value(), last, offset});
          if (f + 1 < n) far = map.next(*far);
        }
        break;
      }
      case ConfigReg::Mfwr:
        writes.push_back({far.value(), last, offset});
        break;
      default:
        break;
    }
  }
  return writes;
}

/// The case-study streams: every partial, each region's blank stream and
/// the full-device bitstream, by name.
std::vector<std::pair<std::string, std::vector<std::uint8_t>>> case_study_streams() {
  const synth::DesignBundle& bundle = mccdma::shared_case_study().bundle;
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> streams;
  for (const auto& [region, artifacts] : bundle.dynamic_variants) {
    for (const auto& v : artifacts) streams.emplace_back(v.name, v.bitstream);
    const auto blank = bundle.blank_streams.at(region)->bytes();
    streams.emplace_back("blank_" + region, std::vector<std::uint8_t>(blank.begin(), blank.end()));
  }
  streams.emplace_back("full", bundle.initial_bitstream);
  return streams;
}

TEST(ValidatedStream, ViewsReplayTheParsersFrameWrites) {
  const DeviceModel& d = mccdma::shared_case_study().bundle.device;
  for (const auto& [name, bytes] : case_study_streams()) {
    const auto handle = ValidatedStream::parse(d, bytes);
    EXPECT_EQ(writes_of(*handle), packet_writes(*handle)) << name;
    EXPECT_NE(handle->bytes().data(), bytes.data()) << name;  // the handle owns a copy
    EXPECT_TRUE(std::equal(handle->bytes().begin(), handle->bytes().end(), bytes.begin(),
                           bytes.end()))
        << name;
  }
}

TEST(ValidatedStream, PortAbortCommitsThePacketsThatEndInsideTheCut) {
  // The fault hook cuts a load after k words, for every k the port allows
  // (1 to words - 1). The frames committed must be exactly those whose
  // packet ends inside the cut, by the offsets summed from decode_packets;
  // they carry this cut's tag and its bytes, every other frame of the
  // stream keeps an earlier tag, and the port accounts one aborted load
  // of the cut's bytes and throws the abort text.
  const synth::DesignBundle& bundle = mccdma::shared_case_study().bundle;
  std::vector<std::pair<std::string, std::shared_ptr<const ValidatedStream>>> streams;
  for (const auto& [region, artifacts] : bundle.dynamic_variants) {
    for (const auto& v : artifacts) streams.emplace_back(v.name, v.stream);
    streams.emplace_back("blank_" + region, bundle.blank_streams.at(region));
  }
  for (const auto& [name, handle] : streams) {
    const std::vector<Write> expected = packet_writes(*handle);
    const std::size_t size = handle->bytes().size();
    const std::size_t words = size / 4;
    ConfigMemory mem(bundle.device);
    ConfigPort port(PortKind::Icap, ConfigPort::default_timing(PortKind::Icap), mem);
    std::size_t keep = 0;
    port.set_fault_hook([&keep, words](Bytes, const std::string&) {
      return (static_cast<double>(keep) + 0.5) / static_cast<double>(words);
    });
    std::size_t most_committed = 0;
    for (keep = 1; keep < words; ++keep) {
      const std::size_t cut = keep * 4;
      const std::string tag = strprintf("%s@%zu", name.c_str(), keep);
      const int written_before = mem.frames_written();
      const TimeNs busy_before = port.total_busy();
      const Bytes bytes_before = port.total_bytes();
      std::string error;
      try {
        port.load(*handle, tag);
      } catch (const Error& e) {
        error = e.what();
      }
      std::size_t committed = 0;
      while (committed < expected.size() && expected[committed].end <= cut) ++committed;
      const std::string what = tag + " committed " + std::to_string(committed);
      ASSERT_EQ(error, strprintf("ConfigPort: load of '%s' aborted after %zu of %zu bytes "
                                 "(%zu frames committed)",
                                 tag.c_str(), cut, size, committed))
          << what;
      ASSERT_EQ(mem.frames_written() - written_before, static_cast<int>(committed)) << what;
      for (std::size_t f = 0; f < expected.size(); ++f) {
        ASSERT_EQ(mem.frame_owner(expected[f].addr) == tag, f < committed)
            << what << " frame " << f;
        if (f + 1 == committed) {
          const auto data = mem.read_frame(expected[f].addr);
          ASSERT_TRUE(std::equal(data.begin(), data.end(), expected[f].data.begin(),
                                 expected[f].data.end()))
              << what;
        }
      }
      ASSERT_EQ(port.loads(), static_cast<int>(keep)) << what;
      ASSERT_EQ(port.aborted_loads(), static_cast<int>(keep)) << what;
      ASSERT_EQ(port.total_bytes() - bytes_before, cut) << what;
      ASSERT_EQ(port.total_busy() - busy_before, port.transfer_time(cut)) << what;
      most_committed = std::max(most_committed, committed);
    }
    // Only the DESYNC word is left out of the longest cut.
    EXPECT_EQ(most_committed, expected.size()) << name;
  }
  EXPECT_GE(streams.size(), 3u);
}

TEST(ValidatedStream, OnlyAFullParseMakesOne) {
  const DeviceModel d = xc2v2000();
  auto stream = small_stream(d);
  stream[stream.size() / 2] ^= 0x10;
  EXPECT_THROW(ValidatedStream::parse(d, stream), Error);
  EXPECT_THROW(ValidatedStream::parse(xc2v1000(), small_stream(d)), Error);  // IDCODE
  const auto handle = ValidatedStream::parse(d, small_stream(d));
  ASSERT_EQ(handle->frames().size(), 1u);
  EXPECT_EQ(handle->device(), d);
}

TEST(ValidatedStream, PortRejectsAHandleOfAnotherDevice) {
  const DeviceModel d = xc2v2000();
  const auto handle = ValidatedStream::parse(d, small_stream(d));
  ConfigMemory mem(xc2v1000());
  ConfigPort port(PortKind::Icap, ConfigPort::default_timing(PortKind::Icap), mem);
  EXPECT_THROW(port.load(*handle, "m"), Error);
  EXPECT_EQ(mem.frames_written(), 0);
  EXPECT_EQ(port.loads(), 0);
}

TEST(ValidatedStream, MfwrAfterAnEmptyBurstRepeatsAZeroFrame) {
  // Packet headers are outside the CRC, so an empty FDRI burst spliced in
  // before an MFWR still validates; the MFWR then repeats a zero frame
  // that is in no packet of the stream. The handle keeps its own.
  const DeviceModel d = xc2v2000();
  const FrameMap map(d);
  const auto frames = map.clb_column_frames(4);
  auto stream = synth::generate_uniform_bitstream(d, {frames[0], frames[1]}, 0x5a);
  // pad, pad, sync, IDCODE x2, FAR x2, FDRI x2 + one frame: the MFWR's FAR
  // header comes next.
  const std::size_t at = (9 + static_cast<std::size_t>(d.frame_words())) * 4;
  const std::uint8_t empty_burst[] = {0x28, 0x00, 0x40, 0x00, 0x48, 0x00, 0x00, 0x00};
  stream.insert(stream.begin() + static_cast<std::ptrdiff_t>(at), std::begin(empty_burst),
                std::end(empty_burst));
  const auto handle = ValidatedStream::parse(d, stream);
  const std::vector<Write> writes = writes_of(*handle);
  ASSERT_EQ(writes.size(), 2u);
  EXPECT_EQ(writes[0].data, frame_data(d, 0x5a));
  EXPECT_EQ(writes[1].data, frame_data(d, 0));
  EXPECT_EQ(writes, packet_writes(*handle));
}

TEST(ValidatedStream, SeededMutantsThrowOrReplayTheRawParse) {
  // A fixed corpus of mutants of the case-study partials and blank streams
  // (the full-device stream is left out to keep the run short) — bit
  // flips, word swaps, truncations and insertions. Each must either fail
  // with a pdr::Error, or give a handle whose views are exactly the frame
  // writes its packet list describes. Headers, pad words and repeated
  // words lie outside the CRC, so some mutants do validate.
  const DeviceModel& d = mccdma::shared_case_study().bundle.device;
  const auto corpus = case_study_streams();
  Rng rng(0xb175);
  int accepted = 0;
  int rejected = 0;
  for (int m = 0; m < 3000; ++m) {
    const auto& [name, original] = corpus[static_cast<std::size_t>(m) % (corpus.size() - 1)];
    std::vector<std::uint8_t> bytes = original;
    const std::size_t words = bytes.size() / 4;
    const auto any_word = [&] {
      return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(words) - 1));
    };
    // Most damage lands near the packet headers at either end.
    const auto hot_word = [&] {
      const std::size_t w = static_cast<std::size_t>(rng.uniform_int(0, 15));
      return rng.chance(0.5) ? w : words - 1 - w;
    };
    std::string kind;
    switch (m % 4) {
      case 0: {
        kind = "flip";
        const std::size_t w = rng.chance(0.5) ? hot_word() : any_word();
        bytes[w * 4 + static_cast<std::size_t>(rng.uniform_int(0, 3))] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
        break;
      }
      case 1: {
        kind = "swap";
        const std::size_t a = hot_word();
        const std::size_t b = rng.chance(0.5) ? hot_word() : any_word();
        std::swap_ranges(bytes.begin() + static_cast<std::ptrdiff_t>(a * 4),
                         bytes.begin() + static_cast<std::ptrdiff_t>(a * 4 + 4),
                         bytes.begin() + static_cast<std::ptrdiff_t>(b * 4));
        if (a == b) bytes[a * 4] ^= 0x01;
        break;
      }
      case 2: {
        kind = "truncate";
        bytes.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 1)));
        break;
      }
      default: {
        kind = "insert";
        const std::size_t at = rng.chance(0.5) ? hot_word() : any_word();
        const std::uint32_t pick[] = {kDummyWord, kSyncWord, 0u, 0x28004000u, 0x48000000u,
                                      static_cast<std::uint32_t>(rng())};
        const std::uint32_t word = pick[rng.uniform_int(0, 5)];
        const std::uint8_t be[] = {static_cast<std::uint8_t>(word >> 24),
                                   static_cast<std::uint8_t>(word >> 16),
                                   static_cast<std::uint8_t>(word >> 8),
                                   static_cast<std::uint8_t>(word)};
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at * 4), std::begin(be),
                     std::end(be));
        break;
      }
    }
    const std::string what = strprintf("mutant %d (%s of %s)", m, kind.c_str(), name.c_str());

    std::shared_ptr<const ValidatedStream> handle;
    try {
      handle = ValidatedStream::parse(d, bytes);
    } catch (const Error&) {
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_EQ(writes_of(*handle), packet_writes(*handle)) << what;
  }
  // The corpus exercises both outcomes.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace pdr::fabric
