// ArtifactStore: the typed, content-addressed cache between pipeline
// stages, and the project's one single-flight cache.
//
// Each entry is keyed by (stage name, input fingerprint) and holds one
// immutable artifact behind a shared_ptr<const T>. get_or_build() is
// thread-safe: when N scenario workers ask for the same missing artifact
// concurrently, exactly one runs the builder while the rest block on its
// future — so the per-stage run counter counts real recomputations,
// never duplicated work. (The fleet service's bitstream cache needs no
// such machinery: svc::FleetCache is a ledger its coordinator updates
// between parallel phases.)
//
// The run/hit counters per stage are the observable caching contract:
// "re-running a flow with unchanged inputs serves the cached artifact"
// is asserted by tests through runs(stage) staying flat while
// hits(stage) climbs. They are process-wide totals; each Pipeline
// counts its own calls as flow.cache.* metrics.
#pragma once

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <typeindex>
#include <utility>

#include "flow/fingerprint.hpp"
#include "util/error.hpp"

namespace pdr::flow {

class ArtifactStore {
 public:
  struct StageStats {
    std::uint64_t runs = 0;  ///< builder invocations (cache misses)
    std::uint64_t hits = 0;  ///< requests served from the cache
  };

  /// Returns the artifact for (stage, key), running `build` only when it
  /// is not cached. `build` must return T (by value); the stored artifact
  /// is immutable from then on. A builder that throws does not poison the
  /// key: the exception propagates to every waiter and the next call
  /// retries.
  template <typename T, typename Build>
  std::shared_ptr<const T> get_or_build(const std::string& stage, const Fingerprint& key,
                                        Build&& build) {
    const StoreKey store_key{stage, key.value()};
    std::promise<Stored> promise;
    std::shared_future<Stored> future;
    bool is_builder = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = entries_.find(store_key);
      if (it != entries_.end()) {
        ++stats_[stage].hits;
        future = it->second;
      } else {
        future = promise.get_future().share();
        entries_.emplace(store_key, future);
        ++stats_[stage].runs;
        is_builder = true;
      }
    }
    if (is_builder) {
      try {
        auto artifact = std::make_shared<const T>(build());
        promise.set_value(Stored{artifact, std::type_index(typeid(T))});
      } catch (...) {
        promise.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lock(mutex_);
        entries_.erase(store_key);  // let the next caller retry
      }
    }
    return checked_cast<T>(stage, future.get());
  }

  /// Builder invocations for `stage` so far.
  std::uint64_t runs(const std::string& stage) const;
  /// Cache-served requests for `stage` so far.
  std::uint64_t hits(const std::string& stage) const;

  std::size_t size() const;
  void clear();

 private:
  using StoreKey = std::pair<std::string, std::uint64_t>;
  struct Stored {
    std::shared_ptr<const void> artifact;
    std::type_index type = std::type_index(typeid(void));
  };

  template <typename T>
  static std::shared_ptr<const T> checked_cast(const std::string& stage, const Stored& stored) {
    PDR_CHECK(stored.type == std::type_index(typeid(T)), "ArtifactStore",
              "stage '" + stage + "' artifact requested as a different type");
    return std::static_pointer_cast<const T>(stored.artifact);
  }

  mutable std::mutex mutex_;
  std::map<StoreKey, std::shared_future<Stored>> entries_;
  std::map<std::string, StageStats> stats_;
};

/// Process-wide store shared by the presets (run_flow_from_constraints,
/// the case study, the CLI): repeated builds of identical inputs anywhere
/// in the process are served from cache.
std::shared_ptr<ArtifactStore> default_store();

}  // namespace pdr::flow
