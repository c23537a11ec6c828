// Pipeline presets and sweep scenario factories for the MC-CDMA case
// study — the layer where the flow engine meets the transmitter.
//
// The Simulate stage lives here (not in pdr::flow) because it needs
// mccdma::TransmitterSystem, which sits above the flow library in the
// dependency order. The presets assemble flow::Pipeline instances over
// the process-wide artifact store, so every sweep scenario shares one
// cached Modular Design bundle instead of re-running synthesis.
#pragma once

#include <cstddef>
#include <string>

#include "flow/pipeline.hpp"
#include "flow/scenario.hpp"
#include "mccdma/system.hpp"

namespace pdr::mccdma {

/// Pipeline wired to the case study: constraints side (constraints text +
/// static modules) and project side (transmitter algorithm on the Sundance
/// architecture, per-variant reconfiguration costs from the shared
/// bundle, constraints applied, qpsk preloaded in D1).
flow::Pipeline case_study_pipeline();

/// Pipeline for an externally supplied constraints file; statics default
/// to none (matches `pdrflow build`).
flow::Pipeline constraints_pipeline(std::string constraints_text,
                                    std::vector<synth::ModuleSpec> statics = {});

/// A SystemConfig preset: Sundance manager, given prefetch policy and
/// seed, everything else at case-study defaults.
SystemConfig sweep_system_config(aaa::PrefetchChoice prefetch, std::uint64_t seed);

/// Renders a SystemReport as the canonical two-table text used by
/// `pdrflow simulate` and the sweep scenarios. Deterministic for a given
/// (config, report): simulated-time numbers only, no wall-clock.
std::string format_system_report(const SystemReport& report, const SystemConfig& config);

/// One seeded transmitter run as a sweep scenario. The body hands the
/// scenario's own sinks to the config, runs `symbols` OFDM symbols
/// against shared_case_study() and returns format_system_report().
flow::Scenario transmitter_scenario(std::string name, SystemConfig config, std::size_t symbols);

/// One seeded fault-injection campaign as a sweep scenario, run through
/// the FaultCampaign stage of constraints_pipeline(case-study constraints
/// text, case-study statics), so a repeated (spec, options) pair is a
/// cache hit. Returns the campaign report text.
flow::Scenario campaign_scenario(std::string name, std::string spec_text,
                                 flow::FaultCampaignOptions options);

}  // namespace pdr::mccdma
