#include "svc/fleet_cache.hpp"

#include <algorithm>
#include <utility>

namespace pdr::svc {

FleetCache::FleetCache(Bytes capacity) : capacity_(capacity) {}

FleetCache::Image FleetCache::get_or_fetch(const std::string& module, std::uint64_t stamp,
                                           const std::function<Image()>& fetch) {
  std::promise<Image> promise;
  std::shared_future<Image> future;
  bool is_fetcher = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(module);
    if (it != entries_.end()) {
      it->second.stamp = std::max(it->second.stamp, stamp);
      ++stats_.served;
      if (!it->second.ready) ++stats_.coalesced;
      future = it->second.future;
    } else {
      future = promise.get_future().share();
      Entry entry;
      entry.future = future;
      entry.stamp = stamp;
      entries_.emplace(module, std::move(entry));
      ++stats_.fetches;
      is_fetcher = true;
    }
  }
  if (is_fetcher) {
    try {
      Image image = fetch();
      const Bytes bytes = image.bytes;
      promise.set_value(std::move(image));
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(module);
      if (it != entries_.end()) {  // invalidate() may have raced us out
        it->second.bytes = bytes;
        it->second.ready = true;
        stats_.resident_bytes += bytes;
        ++stats_.resident_modules;
      }
    } catch (...) {
      promise.set_exception(std::current_exception());
      std::lock_guard<std::mutex> lock(mutex_);
      entries_.erase(module);  // let the next caller retry
    }
  }
  return future.get();
}

bool FleetCache::resident(const std::string& module) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(module);
  return it != entries_.end() && it->second.ready;
}

void FleetCache::invalidate(const std::string& module) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(module);
  if (it == entries_.end()) return;
  if (it->second.ready) {
    stats_.resident_bytes -= it->second.bytes;
    --stats_.resident_modules;
  }
  entries_.erase(it);
  ++stats_.invalidations;
}

std::vector<std::string> FleetCache::sweep() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> evicted;
  if (capacity_ == 0) return evicted;
  while (stats_.resident_bytes > capacity_) {
    // Victim: the ready entry with the lowest stamp (oldest last touch in
    // request-log order — a deterministic LRU).
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (!it->second.ready) continue;
      if (victim == entries_.end() || it->second.stamp < victim->second.stamp) victim = it;
    }
    if (victim == entries_.end()) break;
    stats_.resident_bytes -= victim->second.bytes;
    --stats_.resident_modules;
    ++stats_.evictions;
    evicted.push_back(victim->first);
    entries_.erase(victim);
  }
  return evicted;
}

FleetCache::Stats FleetCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace pdr::svc
