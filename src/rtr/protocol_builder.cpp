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

TimeNs ProtocolBuilder::record(const fabric::ValidatedStream& stream) const {
  const Bytes bytes = stream.bytes().size();
  const TimeNs build_time = transfer_time_ns(bytes, throughput_bytes_per_s());
  sinks_.count("rtr.builder.builds");
  sinks_.count("rtr.builder.bytes", static_cast<double>(bytes));
  sinks_.observe("rtr.builder.build_time_ns", static_cast<double>(build_time),
                 "protocol builder framing time per stream");
  return build_time;
}

}  // namespace pdr::rtr
