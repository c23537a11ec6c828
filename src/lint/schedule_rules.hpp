// Schedule design rules (PDR040..PDR048): lint's view of
// aaa::ScheduleAnalysis, the analysis aaa::validate_schedule throws from.
// Beyond the structural invariants (no resource overlap, dependencies and
// their transfers respected) these rules catch the dynamic-reconfiguration
// hazards the paper's flow must avoid (§4/§6): an operation computing on a
// region whose module is unloaded or still reconfiguring, a prefetch
// ousting a busy region, excluded modules resident together, two loads
// contending for the configuration port and regions left unscrubbed past
// their SEU budget.
#pragma once

#include "aaa/adequation.hpp"
#include "aaa/constraints.hpp"
#include "lint/diagnostic.hpp"

namespace pdr::lint {

/// Checks one schedule. `constraints` may be nullptr (project files carry
/// no constraints file); PDR044 and PDR048 are skipped then. Without
/// constraints, errors() > 0 exactly when validate_schedule throws.
Report check_schedule(const aaa::Schedule& schedule, const aaa::AlgorithmGraph& algorithm,
                      const aaa::ArchitectureGraph& architecture,
                      const aaa::ConstraintSet* constraints = nullptr);

}  // namespace pdr::lint
