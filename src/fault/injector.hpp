// Deterministic, seed-driven fault injector.
//
// Every fault class draws from its own forked RNG stream, sub-seeded from
// (campaign seed, fault kind, target name). The streams are independent:
// adding a fetch fault to the spec does not move a single SEU, and two
// campaigns with the same seed produce bit-identical fault sequences —
// the property the reproducibility acceptance test pins.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "fault/fault_spec.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pdr::fault {

/// One scheduled single-event upset inside a region.
struct SeuEvent {
  TimeNs at = 0;
  std::size_t frame_offset = 0;  ///< index into the region's frame list
  int byte_index = 0;
  int bit = 0;
};

class FaultInjector {
 public:
  /// `seed` == 0 means "use the spec's own seed".
  FaultInjector(FaultSpec spec, std::uint64_t seed = 0);

  const FaultSpec& spec() const { return spec_; }
  std::uint64_t seed() const { return seed_; }

  /// Poisson SEU timeline for one region over [0, spec.horizon), sorted by
  /// time. Deterministic per (seed, region); regions with no `seu`
  /// directive get an empty timeline.
  std::vector<SeuEvent> seu_timeline(const std::string& region, std::size_t frame_count,
                                     int frame_bytes) const;

  /// Config-port hook: draws one per-load decision. Returns a fraction in
  /// (0, 1) — cut the transfer there — or -1 for a clean load.
  double next_port_abort();

  /// Fetch hook (rtr::ReconfigManager::FetchFaultHook): if this fetch of
  /// `module` draws a transient fault, fills `corrupted` with `stored`
  /// with one pseudo-random bit flipped and returns true; otherwise
  /// returns false and leaves `corrupted` alone. The draws (chance, byte
  /// index, bit) depend only on the seed, the module and `stored.size()`.
  bool maybe_corrupt_fetch(const std::string& module, std::span<const std::uint8_t> stored,
                           std::vector<std::uint8_t>& corrupted);

  /// Deterministic byte position for a permanent store damage of `module`.
  std::size_t damage_byte(const std::string& module, std::size_t stream_bytes) const;

  int port_aborts_armed() const { return port_aborts_armed_; }
  int fetch_corruptions() const { return fetch_corruptions_; }

 private:
  /// Independent sub-stream for (kind, name).
  Rng stream(const char* kind, const std::string& name) const;

  FaultSpec spec_;
  std::uint64_t seed_;
  Rng port_rng_;
  std::map<std::string, Rng> fetch_rngs_;
  int port_aborts_armed_ = 0;
  int fetch_corruptions_ = 0;
};

}  // namespace pdr::fault
