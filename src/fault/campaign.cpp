#include "fault/campaign.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "rtr/prefetch.hpp"
#include "sim/event_queue.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdr::fault {

int CampaignReport::total_corrupted_frames() const {
  int total = 0;
  for (const auto& r : regions) total += r.corrupted_frames;
  return total;
}

bool CampaignReport::all_healthy() const {
  for (const auto& r : regions)
    if (r.health != rtr::RegionHealth::Healthy) return false;
  return !regions.empty();
}

std::string CampaignReport::to_string() const {
  std::string out;
  out += strprintf("fault campaign: seed %llu, horizon %.3f ms, recovery %s\n",
                   static_cast<unsigned long long>(seed), to_ms(horizon), recovery ? "on" : "off");
  const auto row = [&out](const char* name, int value) {
    out += strprintf("  %-20s %d\n", name, value);
  };
  row("seus_injected", seus_injected);
  row("port_aborts_armed", port_aborts_armed);
  row("fetch_corruptions", fetch_corruptions);
  row("store_damages", store_damages);
  row("store_repairs", store_repairs);
  row("demands", demands);
  row("unrecovered_errors", unrecovered_errors);
  row("scrub_ticks", scrub.ticks);
  row("scrubs", scrub.scrubs);
  row("frames_repaired", scrub.frames_repaired);
  out += strprintf("  %-20s %.3f ms\n", "mean_seu_exposure", mean_seu_exposure_ms);
  out += strprintf("  %-20s %.2f %%\n", "port_busy", 100.0 * port_busy_fraction);
  for (const auto& r : regions)
    out += strprintf("  region %-13s %s, resident '%s', corrupted_frames %d\n", r.region.c_str(),
                     rtr::region_health_name(r.health), r.resident.c_str(), r.corrupted_frames);
  out += "manager stats:\n";
  out += manager.to_string();
  return out;
}

void check_spec_names(const FaultSpec& spec, const synth::DesignBundle& bundle,
                      const char* where) {
  std::set<std::string> known_modules;
  for (const auto& [region, variants] : bundle.dynamic_variants)
    for (const auto& v : variants) known_modules.insert(v.name);
  for (const auto& s : spec.seus)
    PDR_CHECK(bundle.dynamic_variants.count(s.region) > 0, where,
              "fault spec names unknown region '" + s.region + "'");
  const auto check_module = [&](const std::string& module) {
    PDR_CHECK(known_modules.count(module) > 0, where,
              "fault spec names unknown module '" + module + "'");
  };
  for (const auto& f : spec.fetch_faults) check_module(f.module);
  for (const auto& d : spec.store_damages) check_module(d.module);
  for (const auto& r : spec.store_repairs) check_module(r.module);
}

std::map<std::string, std::string> safe_modules(const FaultSpec& spec,
                                                const synth::DesignBundle& bundle) {
  const auto targeted = [&spec](const std::string& name) {
    return spec.find_fetch_fault(name) != nullptr ||
           std::any_of(spec.store_damages.begin(), spec.store_damages.end(),
                       [&name](const StoreDamage& d) { return d.module == name; });
  };
  std::map<std::string, std::string> safe;
  for (const auto& [region, variants] : bundle.dynamic_variants) {
    const auto it = std::find_if(variants.begin(), variants.end(),
                                 [&](const synth::ModuleArtifact& v) { return !targeted(v.name); });
    safe[region] = (it != variants.end() ? *it : variants.front()).name;
  }
  return safe;
}

void bring_up(rtr::ReconfigManager& manager, const std::map<std::string, std::string>& safe) {
  for (const auto& [region, module] : safe) {
    manager.set_safe_module(region, module);
    manager.set_resident(region, module);
  }
}

void arm(rtr::ReconfigManager& manager, FaultInjector& injector) {
  manager.port().set_fault_hook(
      [&injector](Bytes, const std::string&) { return injector.next_port_abort(); });
  manager.set_fetch_fault_hook(
      [&injector](const std::string& module, std::span<const std::uint8_t> stored,
                  std::vector<std::uint8_t>& corrupted) {
        return injector.maybe_corrupt_fetch(module, stored, corrupted);
      });
}

CampaignReport run_campaign(const synth::DesignBundle& bundle, rtr::BitstreamStore& store,
                            const FaultSpec& spec, const CampaignConfig& config,
                            obs::Sinks sinks) {
  PDR_CHECK(!bundle.dynamic_variants.empty(), "run_campaign", "bundle has no dynamic regions");
  check_spec_names(spec, bundle, "run_campaign");

  FaultInjector injector(spec, config.seed);
  CampaignReport report;
  report.seed = injector.seed();
  report.horizon = spec.horizon;
  report.recovery = config.recovery;

  std::vector<std::string> regions;
  std::map<std::string, std::vector<std::string>> variants_of;
  for (const auto& [region, variants] : bundle.dynamic_variants) {
    regions.push_back(region);
    variants_of[region] = bundle.variant_names(region);
  }

  rtr::ManagerConfig manager_config = config.manager;
  manager_config.recovery.enabled = config.recovery;
  rtr::NonePrefetch policy;
  rtr::ReconfigManager manager(bundle, manager_config, store, policy);
  manager.set_sinks(sinks);
  const std::map<std::string, std::string> safe_of = safe_modules(spec, bundle);
  bring_up(manager, safe_of);
  arm(manager, injector);

  sim::EventQueue queue;
  queue.set_sinks(sinks);

  // SEU exposure accounting: upsets pending per region until a full
  // rewrite (demand load or scrub) erases them.
  std::map<std::string, std::vector<TimeNs>> pending;
  double exposure_sum_ms = 0;
  int exposure_count = 0;
  const auto repaired_at = [&pending, &exposure_sum_ms, &exposure_count](
                               const std::string& region, TimeNs done) {
    auto& v = pending[region];
    for (const TimeNs t : v) {
      exposure_sum_ms += to_ms(done - t);
      ++exposure_count;
    }
    v.clear();
  };

  const int frame_bytes = bundle.device.frame_bytes();
  for (const auto& region : regions) {
    const auto& frames = bundle.floorplan.region_frames(region);
    const auto timeline = injector.seu_timeline(region, frames.size(), frame_bytes);
    report.seus_injected += static_cast<int>(timeline.size());
    for (const auto& ev : timeline) {
      queue.schedule(ev.at, "seu " + region, [&manager, &pending, &frames, region, ev](TimeNs now) {
        manager.memory().flip_bit(frames[ev.frame_offset], ev.byte_index, ev.bit);
        pending[region].push_back(now);
      });
    }
  }

  for (const auto& damage : spec.store_damages) {
    queue.schedule(damage.at, "store damage " + damage.module,
                   [&store, &injector, &report, damage](TimeNs) {
                     store.corrupt(damage.module,
                                   injector.damage_byte(damage.module, store.size_of(damage.module)));
                     ++report.store_damages;
                   });
  }

  // Golden-copy re-flashes close the outage window a damage opened.
  for (const auto& rep : spec.store_repairs) {
    queue.schedule(rep.at, "store repair " + rep.module, [&store, &report, rep](TimeNs) {
      store.repair(rep.module);
      ++report.store_repairs;
    });
  }

  // Demand traffic: rotate each region through its variants so transfers
  // are in flight when port/fetch faults fire.
  std::map<std::string, std::size_t> rotation;
  std::function<void(TimeNs)> demand_tick = [&](TimeNs now) {
    for (const auto& region : regions) {
      const auto& names = variants_of.at(region);
      const std::string target = names[rotation[region]++ % names.size()];
      ++report.demands;
      try {
        const auto out = manager.request(region, target, now);
        if (out.kind != rtr::RequestKind::AlreadyLoaded && !manager.loaded(region).empty())
          repaired_at(region, out.ready_at);  // the rewrite erased prior upsets
      } catch (const Error&) {
        ++report.unrecovered_errors;
      }
    }
    queue.schedule(now + config.demand_period, "demand tick", demand_tick);
  };
  if (config.demand_period > 0)
    queue.schedule(config.demand_period, "demand tick", demand_tick);

  std::optional<ScrubScheduler> scrubber;
  if (config.scrub_period > 0) {
    scrubber.emplace(queue, manager, regions, config.scrub_period, config.scrub_mode);
    scrubber->set_on_scrub(
        [&repaired_at](const std::string& region, TimeNs done, int) { repaired_at(region, done); });
    scrubber->start();
  }

  queue.run(spec.horizon);

  if (config.recovery) {
    // Horizon drain: the self-healing contract is that nothing detected
    // stays broken. Bring failed regions back on their safe module and
    // scrub out any upset that landed since the last tick.
    for (const auto& region : regions) {
      if (manager.loaded(region).empty()) {
        try {
          manager.request(region, safe_of.at(region), spec.horizon);
        } catch (const Error&) {
          ++report.unrecovered_errors;
        }
      }
      if (!manager.loaded(region).empty() && manager.check_health(region, spec.horizon) > 0) {
        const TimeNs done = manager.scrub(region, spec.horizon);
        repaired_at(region, done);
      }
    }
  }

  // Upsets never repaired were exposed until the horizon.
  for (const auto& [region, times] : pending)
    for (const TimeNs t : times) {
      exposure_sum_ms += to_ms(spec.horizon - t);
      ++exposure_count;
    }

  for (const auto& region : regions) {
    RegionOutcome outcome;
    outcome.region = region;
    outcome.health = manager.health(region);
    outcome.resident = manager.loaded(region);
    outcome.corrupted_frames = outcome.resident.empty() ? 0 : manager.verify_resident(region);
    report.regions.push_back(std::move(outcome));
  }

  report.manager = manager.stats();
  if (scrubber.has_value()) report.scrub = scrubber->stats();
  report.port_aborts_armed = injector.port_aborts_armed();
  report.fetch_corruptions = injector.fetch_corruptions();
  report.mean_seu_exposure_ms = exposure_count > 0 ? exposure_sum_ms / exposure_count : 0.0;
  report.port_busy_fraction =
      spec.horizon > 0
          ? static_cast<double>(manager.port().total_busy()) / static_cast<double>(spec.horizon)
          : 0.0;
  return report;
}

}  // namespace pdr::fault
