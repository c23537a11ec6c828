// Configuration port models: ICAP, SelectMAP and (for completeness of the
// Figure-2 sweep) serial JTAG.
//
// A port is a byte funnel into the device's configuration memory: loading
// a bitstream costs `setup + ceil(bits / width) / clock` of simulated
// time, and only one load can be in flight at a time (the simulator owns
// exclusive scheduling; this class enforces only the accounting).
//
//  - ICAP: the Internal Configuration Access Port, reachable from the
//    FPGA's own fixed logic — the paper's case (a) standalone
//    self-reconfiguration.
//  - SelectMAP: the external 8-bit parallel port, driven by a CPU or CPLD
//    — the paper's case (b).
//  - JTAG: 1-bit serial, the slow fallback.
//
// A port takes only a ValidatedStream: the stream passed its check (sync,
// IDCODE, framing, CRC) once when the handle was made, so the port writes
// the handle's frames with no second parse, each as a pointer store into
// the configuration memory (no frame bytes are copied). A load the fault
// hook cuts short is not an error but a returned LoadReport with
// `aborted` set and the frames it committed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "fabric/bitstream.hpp"
#include "fabric/config_memory.hpp"
#include "util/units.hpp"

namespace pdr::fabric {

enum class PortKind : std::uint8_t { Icap, SelectMap, Jtag };

const char* port_kind_name(PortKind kind);

/// Timing knobs of a configuration port.
struct PortTiming {
  int width_bits = 8;          ///< bits accepted per configuration clock
  double clock_hz = 50e6;      ///< configuration clock
  TimeNs setup_overhead = 0;   ///< fixed per-load overhead (sync, startup)
};

/// Summary of one load, whole or cut short by the fault hook.
struct LoadReport {
  Bytes stream_bytes = 0;  ///< bytes through the port: all, or those before the cut
  int frames_written = 0;  ///< frames committed
  TimeNs duration = 0;     ///< port busy time for stream_bytes
  bool aborted = false;    ///< the fault hook cut the transfer
};

class ConfigPort {
 public:
  ConfigPort(PortKind kind, PortTiming timing, ConfigMemory& memory);

  /// Default datasheet-flavoured timings per port kind:
  /// ICAP 8 bit @ 66 MHz, SelectMAP 8 bit @ 50 MHz, JTAG 1 bit @ 33 MHz.
  static PortTiming default_timing(PortKind kind);

  PortKind kind() const { return kind_; }
  const char* name() const { return port_kind_name(kind_); }
  const PortTiming& timing() const { return timing_; }

  /// Pure timing model: how long feeding `bytes` through this port takes.
  TimeNs transfer_time(Bytes bytes) const;

  /// Peak sustained bandwidth in bytes per second.
  double bandwidth_bytes_per_s() const;

  /// Writes a validated stream's frames, tagging them with `module_tag`,
  /// and accounts the transfer. Throws pdr::Error only if the handle was
  /// validated for another device (the memory's check, before any
  /// accounting); a cut load returns `aborted`.
  LoadReport load(const ValidatedStream& stream, const std::string& module_tag);

  /// Fault hook consulted at the start of every load: return a value in
  /// (0, 1) to cut the transfer after that fraction of the stream's words,
  /// on a word boundary strictly inside the stream. The frames whose
  /// packet ends inside the cut stay written — real hardware after a
  /// dropped port clock — the rest never arrive, and load() reports
  /// `aborted`. Any other value lets the load proceed normally.
  using FaultHook = std::function<double(Bytes stream_bytes, const std::string& module_tag)>;
  void set_fault_hook(FaultHook hook) { fault_hook_ = std::move(hook); }

  // Cumulative accounting across loads.
  int loads() const { return loads_; }
  int aborted_loads() const { return aborted_loads_; }
  TimeNs total_busy() const { return total_busy_; }
  Bytes total_bytes() const { return total_bytes_; }

 private:
  PortKind kind_;
  PortTiming timing_;
  ConfigMemory& memory_;
  FaultHook fault_hook_;
  int loads_ = 0;
  int aborted_loads_ = 0;
  TimeNs total_busy_ = 0;
  Bytes total_bytes_ = 0;
};

}  // namespace pdr::fabric
