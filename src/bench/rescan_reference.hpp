// The rescanning reference scheduler: the adequation's original ready-set
// loop, kept as the equivalence oracle and speed baseline of the indexed
// heap aaa::Adequation::run() uses. Each round rescans every pending
// operation for the ready one of highest priority (O(V) per round,
// O(V^2 * deg) per schedule) and hands it to the same place() stage, so
// only the selection path differs and both must produce byte-identical
// schedules. Test and benchmark code only; pdrflow does not link it.
#pragma once

#include "aaa/adequation.hpp"

namespace pdr::bench {

/// Schedules `adequation`'s problem in rescan order. Same contract and
/// result as adequation.run(options).
aaa::Schedule schedule_rescan_reference(const aaa::Adequation& adequation,
                                        const aaa::AdequationOptions& options = {});

}  // namespace pdr::bench
