// On-chip bitstream cache.
//
// An LRU cache of hot partial bitstreams held in on-chip BRAM next to the
// protocol builder, removing the external-memory fetch from the critical
// path for recently used modules. The paper lists "configuration
// prefetching capabilities" among its partitioning metrics; caching is the
// natural companion optimization and is benchmarked as an ablation.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <string>

#include "obs/sinks.hpp"
#include "util/units.hpp"

namespace pdr::rtr {

class BitstreamCache {
 public:
  /// `capacity_bytes` = 0 disables the cache entirely.
  explicit BitstreamCache(Bytes capacity_bytes);

  /// Looks a module up; on hit, refreshes recency and returns true.
  bool lookup(const std::string& module);

  /// Inserts (or refreshes) a module of `bytes`; evicts least-recently
  /// used entries until it fits. Streams larger than the capacity are not
  /// cached.
  void insert(const std::string& module, Bytes bytes);

  /// Removes a module if present.
  void invalidate(const std::string& module);

  /// Mirrors hit/miss/eviction counters and the occupancy gauge into
  /// `sinks` under "rtr.cache.".
  void set_sinks(obs::Sinks sinks) { sinks_ = sinks; }

  Bytes capacity() const { return capacity_; }
  Bytes used() const { return used_; }
  std::size_t entries() const { return sizes_.size(); }

  // Statistics.
  int hits() const { return hits_; }
  int misses() const { return misses_; }
  int evictions() const { return evictions_; }
  double hit_rate() const {
    const int total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / total;
  }

 private:
  Bytes capacity_;
  Bytes used_ = 0;
  std::list<std::string> lru_;  ///< front = most recent
  std::map<std::string, std::pair<std::list<std::string>::iterator, Bytes>> sizes_;
  int hits_ = 0;
  int misses_ = 0;
  int evictions_ = 0;
  obs::Sinks sinks_;
};

}  // namespace pdr::rtr
