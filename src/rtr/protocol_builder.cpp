#include "rtr/protocol_builder.hpp"

#include "util/error.hpp"

namespace pdr::rtr {

ProtocolBuilder::ProtocolBuilder(aaa::Placement placement, double cpu_bytes_per_s,
                                 double fpga_bytes_per_s)
    : placement_(placement),
      cpu_bytes_per_s_(cpu_bytes_per_s),
      fpga_bytes_per_s_(fpga_bytes_per_s) {
  PDR_CHECK(cpu_bytes_per_s_ > 0 && fpga_bytes_per_s_ > 0, "ProtocolBuilder",
            "builder throughputs must be positive");
}

double ProtocolBuilder::throughput_bytes_per_s() const {
  return placement_ == aaa::Placement::Cpu ? cpu_bytes_per_s_ : fpga_bytes_per_s_;
}

BuildResult ProtocolBuilder::build(const fabric::DeviceModel& device,
                                   std::span<const std::uint8_t> raw) const {
  // Structural validation IS the builder's job: framing, addresses, CRC.
  BuildResult result;
  result.frames = fabric::BitstreamReader::validate(device, raw).frames_written;
  result.build_time = record(raw);
  return result;
}

TimeNs ProtocolBuilder::record(std::span<const std::uint8_t> raw) const {
  const TimeNs build_time = transfer_time_ns(raw.size(), throughput_bytes_per_s());
  sinks_.count("rtr.builder.builds");
  sinks_.count("rtr.builder.bytes", static_cast<double>(raw.size()));
  sinks_.observe("rtr.builder.build_time_ns", static_cast<double>(build_time),
                 "protocol builder framing time per stream");
  return build_time;
}

}  // namespace pdr::rtr
