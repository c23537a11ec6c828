#include "fabric/config_port.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace pdr::fabric {

const char* port_kind_name(PortKind kind) {
  switch (kind) {
    case PortKind::Icap: return "ICAP";
    case PortKind::SelectMap: return "SelectMAP";
    case PortKind::Jtag: return "JTAG";
  }
  return "?";
}

ConfigPort::ConfigPort(PortKind kind, PortTiming timing, ConfigMemory& memory)
    : kind_(kind), timing_(timing), memory_(memory) {
  PDR_CHECK(timing_.width_bits > 0 && timing_.clock_hz > 0, "ConfigPort", "invalid timing");
}

PortTiming ConfigPort::default_timing(PortKind kind) {
  switch (kind) {
    case PortKind::Icap: return PortTiming{8, 66e6, 500};
    case PortKind::SelectMap: return PortTiming{8, 50e6, 1000};
    case PortKind::Jtag: return PortTiming{1, 33e6, 2000};
  }
  return PortTiming{};
}

TimeNs ConfigPort::transfer_time(Bytes bytes) const {
  const auto bits = static_cast<double>(bytes) * 8.0;
  const double cycles = bits / static_cast<double>(timing_.width_bits);
  const double ns = cycles * 1e9 / timing_.clock_hz;
  const auto whole = static_cast<TimeNs>(ns);
  return timing_.setup_overhead + ((static_cast<double>(whole) < ns) ? whole + 1 : whole);
}

double ConfigPort::bandwidth_bytes_per_s() const {
  return timing_.clock_hz * static_cast<double>(timing_.width_bits) / 8.0;
}

LoadReport ConfigPort::load(const ValidatedStream& stream, const std::string& module_tag) {
  const std::size_t size = stream.bytes().size();
  const std::span<const ValidatedStream::Frame> frames = stream.frames();
  LoadReport report;
  report.stream_bytes = size;
  report.frames_written = static_cast<int>(frames.size());
  if (fault_hook_) {
    const double fraction = fault_hook_(size, module_tag);
    const std::size_t words = size / 4;
    if (fraction > 0.0 && fraction < 1.0 && words > 1) {
      // Cut on a word boundary strictly inside the stream: at least one
      // word goes through (the port accepted the sync sequence before
      // dying), and the DESYNC word never arrives.
      const std::size_t cut =
          4 * std::clamp<std::size_t>(
                  static_cast<std::size_t>(fraction * static_cast<double>(words)), 1, words - 1);
      const auto delivered = std::ranges::partition_point(
          frames, [cut](const ValidatedStream::Frame& frame) { return frame.end <= cut; });
      report.stream_bytes = cut;
      report.frames_written = static_cast<int>(delivered - frames.begin());
      report.aborted = true;
    }
  }
  memory_.write_frames(stream, static_cast<std::size_t>(report.frames_written), module_tag);

  report.duration = transfer_time(report.stream_bytes);
  ++loads_;
  if (report.aborted) ++aborted_loads_;
  total_busy_ += report.duration;
  total_bytes_ += report.stream_bytes;
  return report;
}

}  // namespace pdr::fabric
