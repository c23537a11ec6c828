// The paper's case study (§6), assembled end to end:
//
//  - the constraints file defining dynamic modules qpsk/qam16 in region
//    D1 (sized to the paper's "8 % of the FPGA"),
//  - the transmitter algorithm graph (paper Figure 4 datapath),
//  - the Sundance platform architecture graph (DSP + XC2V2000),
//  - the Modular Design flow output (floorplan, placements, partial
//    bitstreams),
//  - the external bitstream memory sized so that a cold reconfiguration
//    of Op_Dyn lands at the paper's measured ~= 4 ms.
#pragma once

#include <string>

#include "aaa/adequation.hpp"
#include "aaa/algorithm_graph.hpp"
#include "aaa/architecture_graph.hpp"
#include "aaa/constraints.hpp"
#include "aaa/durations.hpp"
#include "mccdma/params.hpp"
#include "rtr/bitstream_store.hpp"
#include "synth/flow.hpp"

namespace pdr::mccdma {

/// External bitstream memory streaming rate chosen so that the 8 %
/// region's partial bitstream loads in ~= 4 ms (the memory, not the ICAP,
/// is the bottleneck — as in the paper's board, where the protocol
/// builder addresses external memory).
inline constexpr double kCaseStudyStoreBandwidth = 16.7e6;  // bytes/s
inline constexpr TimeNs kCaseStudyStoreLatency = 10'000;    // 10 us address setup

/// Width (CLB columns) pinned for region D1: 5 of the XC2V2000's 48
/// columns ~= 7.9 % of the device's configuration frames, matching the
/// paper's "8 % of the FPGA".
inline constexpr int kCaseStudyRegionCols = 5;

struct CaseStudy {
  aaa::ConstraintSet constraints;
  aaa::AlgorithmGraph algorithm;
  aaa::ArchitectureGraph architecture;
  aaa::DurationTable durations;
  synth::DesignBundle bundle;
  McCdmaParams params;
};

/// The constraints-file text for the case study (parseable DSL).
std::string case_study_constraints_text();

/// Builds the transmitter algorithm graph (paper Figure 4 datapath).
aaa::AlgorithmGraph make_transmitter_algorithm(const McCdmaParams& params);

/// The case study's static-module list (everything outside region D1).
std::vector<synth::ModuleSpec> case_study_statics();

/// Runs the Modular Design flow for a ConstraintSet: dynamic modules from
/// the constraints, plus the given static modules. A set with design-rule
/// errors throws (lint::validate_constraints) before the flow runs.
///
/// A thin preset over flow::Pipeline's Synth stage: the constraints are
/// serialized to their canonical text and looked up in the process-wide
/// artifact store, so calling this twice with equivalent inputs runs the
/// Modular Design flow once and serves the cached bundle the second time.
synth::DesignBundle run_flow_from_constraints(const aaa::ConstraintSet& constraints,
                                              const std::vector<synth::ModuleSpec>& statics);

/// Assembles the whole case study.
CaseStudy build_case_study();

/// Process-wide shared case study (built once, the synth stage served
/// from the flow artifact cache). The reference stays valid for the
/// process lifetime — what sweep scenarios and benches should use.
const CaseStudy& shared_case_study();

/// An external store pre-sized with the case-study timing model.
rtr::BitstreamStore make_case_study_store();

/// Reconfiguration-cost callback for the adequation: cold-load latency of
/// each variant through the case-study store and ICAP.
aaa::ReconfigCost case_study_reconfig_cost(const synth::DesignBundle& bundle);

}  // namespace pdr::mccdma
