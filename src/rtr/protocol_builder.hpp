// The protocol configuration builder.
//
// "Configuration requests are sent to the protocol configuration builder
// which is in charge to construct a valid reconfiguration stream in
// agreement with the used protocol mode (e.g selectmap)." (§5)
//
// The builder checks a raw partial bitstream fetched from the store
// against the target device (sync word, IDCODE, packet framing, CRC); the
// port then streams those same bytes, so the builder copies nothing. A
// fabric::ValidatedStream passed that check when it was made: record()
// counts and prices its build without walking it, and the port streams
// its frames with no parse.
// Where it runs (paper's 'P' label: FPGA or CPU) determines its
// throughput and therefore how much it contributes to reconfiguration
// latency.
#pragma once

#include <cstdint>
#include <span>

#include "aaa/constraints.hpp"
#include "fabric/bitstream.hpp"
#include "obs/sinks.hpp"
#include "util/units.hpp"

namespace pdr::rtr {

struct BuildResult {
  TimeNs build_time = 0;  ///< time the builder itself needs
  int frames = 0;
};

class ProtocolBuilder {
 public:
  /// `cpu_bytes_per_s`: software framing throughput when placed on the
  /// CPU; `fpga_bytes_per_s`: hardware builder throughput (usually above
  /// the port rate, i.e. transparent).
  ProtocolBuilder(aaa::Placement placement, double cpu_bytes_per_s, double fpga_bytes_per_s);

  aaa::Placement placement() const { return placement_; }
  double throughput_bytes_per_s() const;

  /// Validates `raw` against `device`: the stream is port-ready as is.
  /// Throws pdr::Error (with the precise packet defect) on malformed
  /// streams — a corrupted external memory must never reach the fabric.
  BuildResult build(const fabric::DeviceModel& device, std::span<const std::uint8_t> raw) const;

  /// Counts one build of `raw` (rtr.builder.* metrics) and returns its
  /// build time, without walking the stream. build() ends with it; a
  /// caller passing the bytes of a fabric::ValidatedStream calls it
  /// instead, so every build is still counted and priced.
  TimeNs record(std::span<const std::uint8_t> raw) const;

  /// Mirrors build counts/bytes and a build-time histogram into `sinks`
  /// under "rtr.builder.".
  void set_sinks(obs::Sinks sinks) { sinks_ = sinks; }

 private:
  aaa::Placement placement_;
  double cpu_bytes_per_s_;
  double fpga_bytes_per_s_;
  obs::Sinks sinks_;
};

}  // namespace pdr::rtr
