#include "fabric/config_port.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

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

void ConfigPort::abort_load(const ValidatedStream& stream, const std::string& module_tag,
                            double fraction) {
  // Cut on a word boundary strictly inside the stream: at least one word
  // goes through (the port accepted the sync sequence before dying), and
  // the DESYNC word never arrives.
  const std::size_t size = stream.bytes().size();
  const std::size_t words = size / 4;
  const std::size_t cut =
      4 * std::clamp<std::size_t>(static_cast<std::size_t>(fraction * static_cast<double>(words)),
                                  1, words - 1);

  memory_.set_writer_tag(module_tag);
  int committed = 0;
  for (const ValidatedStream::Frame& frame : stream.frames()) {
    if (frame.end > cut) break;
    memory_.write_frame(frame.addr, frame.data);
    ++committed;
  }

  ++loads_;
  ++aborted_loads_;
  total_busy_ += transfer_time(cut);
  total_bytes_ += cut;
  raise("ConfigPort", strprintf("load of '%s' aborted after %zu of %zu bytes (%d frames committed)",
                                module_tag.c_str(), cut, size, committed));
}

LoadReport ConfigPort::load(const ValidatedStream& stream, const std::string& module_tag) {
  PDR_CHECK(stream.device() == memory_.device(), "ConfigPort",
            strprintf("stream was validated for device %s, not %s", stream.device().name.c_str(),
                      memory_.device().name.c_str()));
  const std::size_t size = stream.bytes().size();
  if (fault_hook_) {
    const double fraction = fault_hook_(size, module_tag);
    if (fraction > 0.0 && fraction < 1.0 && size / 4 > 1) abort_load(stream, module_tag, fraction);
  }
  memory_.set_writer_tag(module_tag);
  for (const ValidatedStream::Frame& frame : stream.frames())
    memory_.write_frame(frame.addr, frame.data);

  LoadReport report;
  report.frames_written = static_cast<int>(stream.frames().size());
  report.stream_bytes = size;
  report.duration = transfer_time(size);
  ++loads_;
  total_busy_ += report.duration;
  total_bytes_ += report.stream_bytes;
  return report;
}

}  // namespace pdr::fabric
