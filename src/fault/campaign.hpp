// Seeded fault campaign: wires the injector into a live manager and runs
// the whole system on the discrete-event queue.
//
// One campaign = one DesignBundle + one FaultSpec + one seed. The driver
//  - installs the injector's hooks on the manager's config port (mid-
//    stream aborts) and fetch path (transient corruption),
//  - schedules every SEU as a flip_bit event and every permanent store
//    damage as a corrupt() event,
//  - generates demand traffic (round-robin variant rotation per region)
//    so transfers are in flight when faults land,
//  - runs the periodic scrub scheduler,
// then reports per-region outcomes. Everything derives from the seed:
// the same (bundle, spec, seed) triple produces a bit-identical report.
//
// The wiring steps (name check, safe modules, bring-up, hook arming) are
// shared with svc::FleetService, which runs one manager per device.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fault/fault_spec.hpp"
#include "fault/injector.hpp"
#include "fault/scrub_scheduler.hpp"
#include "obs/sinks.hpp"
#include "rtr/bitstream_store.hpp"
#include "rtr/manager.hpp"
#include "synth/flow.hpp"
#include "util/units.hpp"

namespace pdr::fault {

struct CampaignConfig {
  std::uint64_t seed = 0;   ///< 0 = use the spec's seed
  bool recovery = true;     ///< manager retry/fallback self-healing
  TimeNs scrub_period = 10'000'000;  ///< 10 ms; 0 disables scrubbing
  ScrubScheduler::Mode scrub_mode = ScrubScheduler::Mode::Blind;
  TimeNs demand_period = 5'000'000;  ///< variant-rotation period; 0 disables
  Bytes cache_capacity = 0;  ///< the manager's on-chip bitstream cache (0 = off)
};

struct RegionOutcome {
  std::string region;
  rtr::RegionHealth health = rtr::RegionHealth::Healthy;
  std::string resident;       ///< module in the region at horizon ("" = blank)
  int corrupted_frames = 0;   ///< verify_resident() at horizon (0 = clean)
};

struct CampaignReport {
  std::uint64_t seed = 0;
  TimeNs horizon = 0;
  bool recovery = false;
  // Injection counts.
  int seus_injected = 0;
  int port_aborts_armed = 0;
  int fetch_corruptions = 0;
  int store_damages = 0;
  int store_repairs = 0;
  // Traffic and recovery.
  int demands = 0;
  int unrecovered_errors = 0;  ///< loads that threw (recovery disabled)
  rtr::ManagerStats manager;
  ScrubStats scrub;
  std::vector<RegionOutcome> regions;
  /// Mean time an upset sat on the fabric before a rewrite erased it
  /// (upsets never repaired count their exposure up to the horizon).
  double mean_seu_exposure_ms = 0;
  double port_busy_fraction = 0;

  int total_corrupted_frames() const;
  bool all_healthy() const;

  /// Deterministic text report — byte-identical across runs of the same
  /// (bundle, spec, seed) triple.
  std::string to_string() const;
};

/// Throws pdr::Error, attributed to `where`, when `spec` names a region
/// or a module that `bundle` lacks, so a typo in a .faults file fails
/// loudly instead of injecting nothing.
void check_spec_names(const FaultSpec& spec, const synth::DesignBundle& bundle, const char* where);

/// Region -> safe module: the first variant that no fetch fault and no
/// store damage of `spec` targets (the image a fallback can trust), else
/// the region's first variant.
std::map<std::string, std::string> safe_modules(const FaultSpec& spec,
                                                const synth::DesignBundle& bundle);

/// Initial bring-up: designates each region's safe module and makes it
/// resident. Runs before `arm`: the full-device bitstream configured the
/// fabric on the bench, not in the field.
void bring_up(rtr::ReconfigManager& manager, const std::map<std::string, std::string>& safe);

/// Routes the manager's port aborts and fetch corruption through
/// `injector`, which must outlive the manager's loads.
void arm(rtr::ReconfigManager& manager, FaultInjector& injector);

/// Runs one campaign to the spec's horizon. Validates that every module
/// the spec names exists in the bundle. The manager and event queue
/// record through `sinks`.
CampaignReport run_campaign(const synth::DesignBundle& bundle, rtr::BitstreamStore& store,
                            const FaultSpec& spec, const CampaignConfig& config,
                            obs::Sinks sinks = {});

}  // namespace pdr::fault
