// Executive player: executes generated macro-code.
//
// The synchronized executive (aaa::Executive) is a set of sequential loop
// programs, one per architecture vertex, synchronizing through buffer
// tokens: a producer's `send` deposits a token that the medium's `move`
// carries and the consumer's `recv` blocks on. The player runs all
// programs for N iterations of the infinitely-repeated data-flow graph,
// verifying the executive is deadlock-free and measuring the achieved
// iteration period (throughput) — which a correct pipelined executive
// makes shorter than the single-iteration makespan.
//
// Reconfig instructions contend for the single configuration port and
// take `reconfig_cost(region, module)`.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "aaa/adequation.hpp"
#include "aaa/architecture_graph.hpp"
#include "aaa/macrocode.hpp"
#include "obs/sinks.hpp"
#include "sim/timeline.hpp"
#include "util/units.hpp"

namespace pdr::sim {

struct PlayResult {
  TimeNs makespan = 0;          ///< completion time of the last program
  TimeNs iteration_period = 0;  ///< steady-state time per graph iteration
  int iterations = 0;
  Timeline timeline;
  int reconfigs = 0;
  int reconfigs_skipped = 0;  ///< region already held the selected module
  int reconfigs_failed = 0;   ///< cost callback threw and the player survived
  /// Hazard monitor (the runtime half of pdr::verify's differential
  /// oracle): a Compute executing a variant in a dynamic region whose
  /// resident module differs — or that was never configured — is counted
  /// here with a description. A schedule the static verifier certified
  /// must replay with hazard_faults == 0.
  int hazard_faults = 0;
  std::vector<std::string> hazards;  ///< one description per fault
};

class ExecutivePlayer {
 public:
  using ReconfigCost = aaa::ReconfigCost;

  ExecutivePlayer(const aaa::Executive& executive, const aaa::ArchitectureGraph& architecture);

  /// Cost of a Reconfig macro instruction (default 4 ms flat).
  void set_reconfig_cost(ReconfigCost cost);

  /// Runtime variant selection: called once per (iteration, region) when
  /// the program reaches a Reconfig instruction; the returned module
  /// replaces the statically scheduled one (return the instruction's own
  /// module to keep it). With a selector installed, regions become
  /// sticky: a Reconfig whose module is already resident from the
  /// previous iteration is skipped at zero cost — the runtime semantics
  /// of the paper's conditioned vertices.
  using VariantSelector = std::function<std::string(int iteration, const std::string& region,
                                                    const std::string& scheduled)>;
  void set_variant_selector(VariantSelector selector);

  /// Declares modules resident per region at t = 0 (the schedule's
  /// preload assumptions): the hazard monitor treats them as configured
  /// before the first Reconfig instruction, exactly as the static
  /// verifier's VerifyOptions::preloaded does.
  void set_initial_residency(std::map<std::string, std::string> residency);

  /// With survival on, a reconfig-cost callback that throws pdr::Error
  /// (e.g. a ReconfigManager load that exhausted its retry budget) no
  /// longer aborts the run: the instruction is counted in
  /// `PlayResult::reconfigs_failed`, the region keeps its previous
  /// module, and the program continues — the degraded-mode semantics of
  /// a self-healing executive. Off (the default) the error propagates.
  void set_survive_reconfig_failures(bool survive);

  /// Records through `sinks`: every executed instruction's span is
  /// traced (categories "exec_compute" / "exec_transfer" /
  /// "exec_reconfig") and run totals are counted under "sim.player.".
  void set_sinks(obs::Sinks sinks) { sinks_ = sinks; }

  /// Runs `iterations` loop passes of every program. Throws pdr::Error
  /// with the blocked instruction set if the executive deadlocks.
  PlayResult run(int iterations);

 private:
  const aaa::Executive& executive_;
  const aaa::ArchitectureGraph& architecture_;
  ReconfigCost reconfig_cost_;
  VariantSelector selector_;
  std::map<std::string, std::string> initial_residency_;
  bool survive_reconfig_failures_ = false;
  obs::Sinks sinks_;
};

}  // namespace pdr::sim
