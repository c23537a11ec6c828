// The protocol configuration builder.
//
// "Configuration requests are sent to the protocol configuration builder
// which is in charge to construct a valid reconfiguration stream in
// agreement with the used protocol mode (e.g selectmap)." (§5)
//
// The stream it builds is a fabric::ValidatedStream: the check against
// the target device (sync word, IDCODE, packet framing, CRC) is the parse
// that made the handle, so the builder only counts and prices the build,
// and the port writes the handle's frames with no second parse.
// Where it runs (paper's 'P' label: FPGA or CPU) determines its
// throughput and therefore how much it contributes to reconfiguration
// latency.
#pragma once

#include "aaa/constraints.hpp"
#include "fabric/bitstream.hpp"
#include "obs/sinks.hpp"
#include "util/units.hpp"

namespace pdr::rtr {

class ProtocolBuilder {
 public:
  /// `cpu_bytes_per_s`: software framing throughput when placed on the
  /// CPU; `fpga_bytes_per_s`: hardware builder throughput (usually above
  /// the port rate, i.e. transparent).
  ProtocolBuilder(aaa::Placement placement, double cpu_bytes_per_s, double fpga_bytes_per_s);

  aaa::Placement placement() const { return placement_; }
  double throughput_bytes_per_s() const;

  /// Counts one build of `stream` (rtr.builder.* metrics) and returns the
  /// time the builder itself needs for it.
  TimeNs record(const fabric::ValidatedStream& stream) const;

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
