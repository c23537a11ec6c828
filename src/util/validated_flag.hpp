// Copyable memoization flag for idempotent const validation.
//
// Graph classes expose `validate() const` that re-checks structural
// invariants from scratch. Every aaa::Adequation validates its graphs on
// construction, and one unmutated graph is often handed to many of them
// (a fresh instance per design pass, bench repeats). The flag
// caches "already validated": set() after a successful pass, clear() in
// every mutator. Stored atomically so concurrent validate() calls on a
// shared const graph (the parallel explorer) are race-free — validation
// is idempotent, so the worst case is two threads both doing the work
// once.
#pragma once

#include <atomic>

namespace pdr::util {

class ValidatedFlag {
 public:
  ValidatedFlag() = default;
  // Copies/moves transfer the cached verdict: a copy of a validated
  // graph starts validated, which is sound because copying preserves
  // every invariant validate() checks.
  ValidatedFlag(const ValidatedFlag& other)
      : ok_(other.ok_.load(std::memory_order_relaxed)) {}
  ValidatedFlag& operator=(const ValidatedFlag& other) {
    ok_.store(other.ok_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    return *this;
  }

  bool test() const { return ok_.load(std::memory_order_acquire); }
  void set() const { ok_.store(true, std::memory_order_release); }
  void clear() { ok_.store(false, std::memory_order_relaxed); }

 private:
  mutable std::atomic<bool> ok_{false};
};

}  // namespace pdr::util
