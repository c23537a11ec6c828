// Index fan-out over short-lived worker threads.
#pragma once

#include <cstddef>
#include <functional>

namespace pdr::util {

/// Runs fn(i) for every i in [0, n) on min(jobs, n) threads: the caller
/// and threads spawned for this call. Workers claim indices from a shared
/// cursor, so fn must touch only index-owned state (or synchronize).
/// Every index runs even when some throw; once all have finished, the
/// exception of the lowest throwing index is rethrown on the caller, so a
/// failure surfaces identically at any `jobs`.
void parallel_for(int jobs, std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace pdr::util
