#include "rtr/cache.hpp"

#include "util/error.hpp"

namespace pdr::rtr {

BitstreamCache::BitstreamCache(Bytes capacity_bytes) : capacity_(capacity_bytes) {}

bool BitstreamCache::lookup(const std::string& module) {
  const auto it = sizes_.find(module);
  if (it == sizes_.end()) {
    ++misses_;
    sinks_.count("rtr.cache.misses");
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second.first);
  ++hits_;
  sinks_.count("rtr.cache.hits");
  return true;
}

void BitstreamCache::insert(const std::string& module, Bytes bytes) {
  PDR_CHECK(bytes > 0, "BitstreamCache::insert", "zero-size bitstream");
  if (bytes > capacity_) return;  // cannot ever fit
  const auto it = sizes_.find(module);
  if (it != sizes_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.first);
    used_ -= it->second.second;
    it->second.second = bytes;
    used_ += bytes;
  } else {
    lru_.push_front(module);
    sizes_[module] = {lru_.begin(), bytes};
    used_ += bytes;
  }
  while (used_ > capacity_) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    used_ -= sizes_.at(victim).second;
    sizes_.erase(victim);
    ++evictions_;
    sinks_.count("rtr.cache.evictions");
  }
  sinks_.gauge("rtr.cache.used_bytes", static_cast<double>(used_));
}

void BitstreamCache::invalidate(const std::string& module) {
  const auto it = sizes_.find(module);
  if (it == sizes_.end()) return;
  used_ -= it->second.second;
  lru_.erase(it->second.first);
  sizes_.erase(it);
  sinks_.gauge("rtr.cache.used_bytes", static_cast<double>(used_));
}

}  // namespace pdr::rtr
