// pdr::verify — interval-based static hazard analysis over schedules.
//
// The paper's safety argument is that area-shared dynamic regions can be
// rewritten mid-application without corrupting the computation.
// verify_schedule() proves it statically: it is the certifying view of
// aaa::ScheduleAnalysis (the same timelines, sweeps and residency walk
// behind aaa::validate_schedule and lint's PDR040-048), reporting the
// hazard classes related co-scheduling work must exclude (Chen et al.,
// arXiv:1803.03748; Hannachi et al., arXiv:1803.03331):
//
//   PDR100  reconfiguration starts while an operation executes in the region
//   PDR101  operation starts while its region's frames are being rewritten
//   PDR102  a variant executes in a region that was never configured
//   PDR103  a different module is resident when the operation starts
//   PDR104  two transfers overlap on an exclusive medium
//   PDR105  two loads overlap on the ICAP/SelectMAP configuration port
//   PDR106  producer->consumer data spans a rewrite of an endpoint region
//           (warning: the executive's static-part buffering makes this
//           safe at runtime, but the data demonstrably crosses a reload)
//   PDR107  two computations overlap on one operator
//   PDR108  a region loads a module the constraints declare elsewhere
//
// Every violation carries a witness — the scheduled item(s), the shared
// resource and the overlapping [start..end) intervals — and the result
// doubles as a *certificate*: the region residency timeline and the port
// booking sequence the schedule commits to. Downstream consumers:
//
//  - flow::DesignSpaceExplorer prunes uncertified design points before
//    paying for simulation (aaa::run_design_point's verifier hook);
//  - sim::ExecutivePlayer replays certified schedules and must observe
//    zero hazard faults (the differential oracle, fuzz-tested);
//  - rtr::ReconfigManager::enable_certified_replay() asserts the runtime
//    load sequence against Certificate::expected_loads().
//
// Violations are emitted through lint::Report (text + JSON), so `pdrflow
// check --deep` and the pipeline's auto-lint pick them up unchanged.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "aaa/adequation.hpp"
#include "aaa/algorithm_graph.hpp"
#include "aaa/architecture_graph.hpp"
#include "aaa/constraints.hpp"
#include "lint/diagnostic.hpp"
#include "util/units.hpp"

namespace pdr::verify {

/// One closed interval of module residency in a region: from the end of
/// the load that configured it (0 for an assumed preload) to the start of
/// the next load (the schedule horizon for the last one).
struct ResidencyInterval {
  std::string region;
  std::string module;
  TimeNs from = 0;
  TimeNs to = 0;
};

/// One detected hazard with its witness. `first` starts no later than
/// `second`; for single-item witnesses (e.g. use-before-configure, where
/// the defect is the *absence* of a load) `pair` is false and `second` is
/// empty.
struct Violation {
  lint::Rule rule = lint::Rule::ReconfigDuringExecute;
  lint::Severity severity = lint::Severity::Error;
  std::string resource;  ///< shared resource: region, medium or the port
  aaa::ScheduledItem first;
  aaa::ScheduledItem second;
  bool pair = true;
  std::string message;
  std::string hint;

  /// Overlap window of the two witness intervals (pair witnesses only).
  TimeNs overlap_from() const;
  TimeNs overlap_to() const;

  /// "PDR100 [resource D1]: <message>".
  std::string to_string() const;
};

struct VerifyOptions {
  /// Constraint context for PDR108 (module-to-region ownership); may be
  /// null, which skips that rule.
  const aaa::ConstraintSet* constraints = nullptr;
  /// Modules assumed resident per region at t = 0 — must mirror the
  /// AdequationOptions::preloaded the schedule was produced with, or
  /// residency analysis will flag the scheduler's assumptions.
  std::map<std::string, std::string> preloaded;
};

/// The verifier's result: the violation list plus the positive artifact —
/// the residency/booking timelines a hazard-free schedule commits to.
class Certificate {
 public:
  std::vector<Violation> violations;
  /// Region residency timeline, per region in time order.
  std::vector<ResidencyInterval> residencies;
  /// Configuration-port occupancy: every Reconfig item in start order.
  std::vector<aaa::ScheduledItem> port_bookings;

  /// Race-free: no error-severity violation (warnings — PDR106 — do not
  /// block certification).
  bool certified() const;

  std::size_t error_count() const;

  /// Message of the first error-severity violation, "" when certified.
  std::string first_error() const;

  /// Violations as lint diagnostics (the PDR1xx family), canonically
  /// ordered by Report's own rendering.
  lint::Report to_report() const;

  /// Per region, the certified module-load sequence in time order — the
  /// contract rtr::ReconfigManager::enable_certified_replay() asserts at
  /// runtime. Plain std::map/std::vector so rtr needs no verify types.
  std::map<std::string, std::vector<std::string>> expected_loads() const;

  /// One-line summary: "certified, N regions, M loads" or
  /// "REJECTED: <first error>".
  std::string summary() const;
};

/// Runs the interval analysis. Pure and deterministic: the certificate is
/// a function of (schedule, algorithm, architecture, options) only.
Certificate verify_schedule(const aaa::Schedule& schedule, const aaa::AlgorithmGraph& algorithm,
                            const aaa::ArchitectureGraph& architecture,
                            const VerifyOptions& options = {});
/// The same certificate from an analysis already built for the schedule.
Certificate verify_schedule(const aaa::ScheduleAnalysis& analysis,
                            const VerifyOptions& options = {});

/// `pdrflow check --deep`: the plain lint families plus interval
/// certification of the default-options schedule. Constraints files have
/// no schedule, so deep and plain checks coincide for them.
lint::Report deep_check_text(const std::string& text);

}  // namespace pdr::verify
