#include "svc/fleet_cache.hpp"

#include <algorithm>

namespace pdr::svc {

FleetCache::FleetCache(Bytes capacity) : capacity_(capacity) {}

void FleetCache::touch(const std::string& module, std::uint64_t stamp, int tick, Bytes bytes) {
  const auto [it, inserted] = entries_.try_emplace(module, Entry{stamp, bytes, tick});
  if (inserted) {
    ++stats_.fetches;
    stats_.resident_bytes += bytes;
    ++stats_.resident_modules;
    return;
  }
  Entry& entry = it->second;
  entry.stamp = std::max(entry.stamp, stamp);
  ++stats_.served;
  if (entry.fetched_tick == tick) ++stats_.coalesced;
}

void FleetCache::invalidate(const std::string& module) {
  const auto it = entries_.find(module);
  if (it == entries_.end()) return;
  stats_.resident_bytes -= it->second.bytes;
  --stats_.resident_modules;
  entries_.erase(it);
  ++stats_.invalidations;
}

std::vector<std::string> FleetCache::sweep() {
  std::vector<std::string> evicted;
  if (capacity_ == 0) return evicted;
  while (stats_.resident_bytes > capacity_) {
    // Victim: the entry with the lowest stamp (oldest last touch in
    // request-log order — a deterministic LRU).
    const auto victim = std::min_element(
        entries_.begin(), entries_.end(),
        [](const auto& a, const auto& b) { return a.second.stamp < b.second.stamp; });
    if (victim == entries_.end()) break;
    stats_.resident_bytes -= victim->second.bytes;
    --stats_.resident_modules;
    ++stats_.evictions;
    evicted.push_back(victim->first);
    entries_.erase(victim);
  }
  return evicted;
}

}  // namespace pdr::svc
