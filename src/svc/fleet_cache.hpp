// Shared fleet bitstream cache: the single-flight tier between N devices
// and the external bitstream store.
//
// flow::ArtifactStore proved the pattern for pipeline artifacts — a
// promise/shared_future per key under one mutex, so N concurrent
// requests for a missing entry run the builder exactly once. This is
// that pattern generalized for the fleet service: keyed by module name,
// size-bounded, with deterministic eviction. An entry holds the store
// image's fabric::ValidatedStream handle, shared with the store, not a
// copy of its bytes.
//
// Concurrency/determinism split:
//  - get_or_fetch() is thread-safe and single-flight: device workers call
//    it concurrently during the parallel drain phase; exactly one runs
//    `fetch` per missing module, the rest share the result.
//  - sweep() and invalidate() are serial-phase operations (the service
//    coordinator calls them between parallel phases). Eviction order is
//    by ascending stamp — the caller supplies the request-log index as
//    the stamp and entry stamps take the max over callers, so which
//    worker touched an entry first never changes what sweep() evicts.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fabric/bitstream.hpp"
#include "util/units.hpp"

namespace pdr::svc {

class FleetCache {
 public:
  struct Stats {
    std::uint64_t fetches = 0;    ///< fetch invocations (one per missing module)
    std::uint64_t served = 0;     ///< requests satisfied without running fetch
    std::uint64_t coalesced = 0;  ///< of `served`: waited on an in-flight fetch
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;
    Bytes resident_bytes = 0;
    std::size_t resident_modules = 0;
  };

  /// One cached store image: its handle (null when the stored image was
  /// damaged: damaged bytes have none) and its size, which the capacity
  /// bound counts.
  struct Image {
    std::shared_ptr<const fabric::ValidatedStream> stream;
    Bytes bytes = 0;
  };

  /// `capacity` bounds resident bytes (0 = unbounded). The bound is
  /// enforced by sweep(), not mid-fetch, so one oversized module still
  /// caches (and is evicted on the next sweep).
  explicit FleetCache(Bytes capacity);

  /// Returns `module`'s image, running `fetch` only when it is not
  /// resident. Single-flight: concurrent callers for one missing module
  /// run `fetch` once and share the result. A fetch that throws does not
  /// poison the key — the exception propagates to every waiter and the
  /// next call retries. `stamp` (the caller's request-log index) feeds
  /// eviction ordering; an entry keeps the max stamp seen.
  Image get_or_fetch(const std::string& module, std::uint64_t stamp,
                     const std::function<Image()>& fetch);

  /// True when `module` is resident (fetch completed, not evicted).
  bool resident(const std::string& module) const;

  /// Serial phase: drops `module` (e.g. after permanent store damage the
  /// cached copy is stale). No-op when absent.
  void invalidate(const std::string& module);

  /// Serial phase: evicts lowest-stamp entries until resident bytes fit
  /// the capacity. Returns the evicted names in eviction order.
  std::vector<std::string> sweep();

  Bytes capacity() const { return capacity_; }
  Stats stats() const;

 private:
  struct Entry {
    std::shared_future<Image> future;
    std::uint64_t stamp = 0;
    Bytes bytes = 0;     ///< filled in when the fetch completes
    bool ready = false;  ///< future resolved successfully
  };

  Bytes capacity_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
  Stats stats_;
};

}  // namespace pdr::svc
