// ScenarioRunner: N independent pipeline/simulation instances on a
// fixed-size thread pool, with per-scenario observability sinks merged
// deterministically.
//
// The determinism contract: for the same scenario list (same seeds, same
// bodies), the merged SweepResult — per-scenario report strings, merged
// tracer, merged metrics — is byte-identical whatever `jobs` is, 1 or 16.
// Three properties combine to give that:
//  - every scenario body is a pure function of its inputs (all the
//    simulations are seed-driven; sim::EventQueue's FIFO tie-break keeps
//    them so),
//  - each scenario records only into its own obs::Recorder and writes
//    only its own result slot (no shared mutable state between bodies),
//  - merging happens after the barrier, serially, in scenario-list order
//    (never completion order).
// Wall-clock timings are recorded per scenario but deliberately kept out
// of the report strings; print them to stderr, not stdout.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "obs/sinks.hpp"

namespace pdr::flow {

struct Scenario {
  /// Unique label; prefixes the scenario's tracks in the merged trace.
  std::string name;
  /// Runs the scenario, recording through `sinks` (a handle to the
  /// scenario's own recorder), and returns the deterministic report text
  /// (simulated-time numbers only — no wall-clock, or serial-vs-parallel
  /// byte-identity breaks).
  std::function<std::string(obs::Sinks sinks)> body;
};

struct ScenarioResult {
  std::string name;
  std::string report;   ///< body's return value ("" when it threw)
  std::string error;    ///< exception message ("" on success)
  double wall_ms = 0;   ///< body wall-clock (excluded from determinism)
  bool ok() const { return error.empty(); }
};

struct SweepResult {
  std::vector<ScenarioResult> results;  ///< scenario-list order
  obs::Recorder recorder;               ///< list-order merge, tracks "<name>/"
  double wall_ms = 0;                   ///< whole sweep, wall-clock

  /// Concatenated per-scenario reports, each under a "=== name ==="
  /// header — the sweep's canonical byte-comparable output.
  std::string combined_report() const;
  std::size_t failures() const;
};

class ScenarioRunner {
 public:
  /// `jobs` <= 1 runs scenarios inline on the calling thread.
  explicit ScenarioRunner(int jobs);

  /// Runs every scenario, blocks until all finish, merges in list order.
  SweepResult run(const std::vector<Scenario>& scenarios) const;

  int jobs() const { return jobs_; }

 private:
  int jobs_;
};

}  // namespace pdr::flow
