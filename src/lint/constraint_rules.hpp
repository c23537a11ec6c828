// Constraints-file design rules (PDR001..PDR017, PDR021).
//
// The paper's constraints file (§4) declares dynamic modules and their
// loading/unloading policies, area sharing, dynamic relations and
// exclusions. These rules check the file's self-consistency before any
// flow stage runs: `check_constraints` reports every violation as a
// diagnostic (`pdrflow check`), `validate_constraints` throws on the
// error-severity ones (the flow's callers that refuse an invalid set).
#pragma once

#include "aaa/constraints.hpp"

namespace pdr::lint {

class Report;

/// Runs every constraint rule and collects the diagnostics.
Report check_constraints(const aaa::ConstraintSet& set);

/// Throws one pdr::Error listing every error-severity diagnostic of
/// check_constraints, in the order it reports them, each as
/// "PDRnnn: message"; warnings are ignored.
void validate_constraints(const aaa::ConstraintSet& set);

}  // namespace pdr::lint
