// Fleet bitstream cache ledger: which module images the fleet holds
// between its devices and the external bitstream store.
//
// The ledger is bookkeeping, not a store of bytes: a device's manager
// loads from rtr::BitstreamStore's shared handles either way, and the
// fleet tier only decides whether a read counts as a store round-trip
// (fetch) or as served from the fleet (served). Only the FleetService
// coordinator calls it, in serial phases: workers append their reads to
// a per-device list during the parallel drain, and the coordinator
// replays every list into touch() before sweep(). Nothing here locks.
//
// Replay order never matters: a tick's touches of a missing module
// insert it once whichever comes first, and an entry's stamp (the
// request-log index) is the max over its touches, so the lowest-stamp
// eviction order of sweep() is the same at any worker count.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace pdr::svc {

class FleetCache {
 public:
  struct Stats {
    std::uint64_t fetches = 0;    ///< touches that found the module absent
    std::uint64_t served = 0;     ///< touches that found it resident
    std::uint64_t coalesced = 0;  ///< of `served`: in the tick that fetched it
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
    Bytes resident_bytes = 0;
    std::size_t resident_modules = 0;
  };

  /// `capacity` bounds resident bytes (0 = unbounded). The bound is
  /// enforced by sweep(), not by touch(), so one oversized module still
  /// enters (and is evicted on the next sweep).
  explicit FleetCache(Bytes capacity);

  /// Records that request `stamp` read `module` during tick `tick`. An
  /// absent module is inserted as one fetch of `bytes`; a resident one is
  /// served and keeps the larger stamp.
  void touch(const std::string& module, std::uint64_t stamp, int tick, Bytes bytes);

  /// Drops `module` (e.g. after permanent store damage the cached copy is
  /// stale). No-op when absent.
  void invalidate(const std::string& module);

  /// Evicts lowest-stamp entries until resident bytes fit the capacity.
  /// Returns the evicted names in eviction order.
  std::vector<std::string> sweep();

  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    std::uint64_t stamp = 0;
    Bytes bytes = 0;
    int fetched_tick = 0;
  };

  Bytes capacity_;
  std::map<std::string, Entry> entries_;
  Stats stats_;
};

}  // namespace pdr::svc
