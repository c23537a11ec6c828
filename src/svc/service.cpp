#include "svc/service.hpp"

#include <algorithm>
#include <set>

#include "fault/injector.hpp"
#include "rtr/prefetch.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace pdr::svc {

const char* disposition_name(Disposition d) {
  switch (d) {
    case Disposition::Completed: return "completed";
    case Disposition::Degraded: return "degraded";
    case Disposition::Failed: return "failed";
    case Disposition::TimedOut: return "timed_out";
    case Disposition::RejectedQueueFull: return "rejected_queue_full";
    case Disposition::RejectedBreakerOpen: return "rejected_breaker_open";
    case Disposition::Shed: return "shed";
  }
  return "?";
}

rtr::ManagerStats ServiceReport::fleet_stats() const {
  rtr::ManagerStats total;
  for (const auto& dev : device_summaries) {
    const auto& s = dev.stats;
    total.requests += s.requests;
    total.already_loaded += s.already_loaded;
    total.prefetch_hits += s.prefetch_hits;
    total.prefetch_inflight += s.prefetch_inflight;
    total.cache_hits += s.cache_hits;
    total.misses += s.misses;
    total.prefetches_issued += s.prefetches_issued;
    total.prefetches_wasted += s.prefetches_wasted;
    total.scrubs += s.scrubs;
    total.blanks += s.blanks;
    total.load_failures += s.load_failures;
    total.crc_rejects += s.crc_rejects;
    total.port_aborts += s.port_aborts;
    total.readback_failures += s.readback_failures;
    total.retries += s.retries;
    total.fallbacks += s.fallbacks;
    total.scrub_repairs += s.scrub_repairs;
    total.health_transitions += s.health_transitions;
    total.total_stall += s.total_stall;
    total.total_load_time += s.total_load_time;
    total.bytes_loaded += s.bytes_loaded;
    for (const auto& [region, counts] : s.health_transition_counts)
      for (const auto& [edge, n] : counts) total.health_transition_counts[region][edge] += n;
  }
  return total;
}

std::string ServiceReport::to_string() const {
  std::string out;
  out += strprintf("fleet service: %d device(s), %zu request(s), %d tick(s) x %.3f ms\n", devices,
                   records.size(), ticks, to_ms(tick_length));
  const auto row = [&out](const char* name, int value) {
    out += strprintf("  %-22s %d\n", name, value);
  };
  row("completed", completed);
  row("degraded", degraded);
  row("failed", failed);
  row("timed_out", timed_out);
  row("rejected_queue_full", rejected_queue_full);
  row("rejected_breaker_open", rejected_breaker_open);
  row("shed", shed);
  row("admitted", admitted);
  row("rerouted", rerouted);
  row("planned_cold_fetches", cache_planned_fetches);
  row("planned_cache_hits", cache_planned_hits);
  // `coalesced` stays out of this text, which the serve goldens pin;
  // perfbench reads it from the stats.
  out += strprintf(
      "fleet cache: fetches %llu, served %llu, evictions %llu, invalidations %llu, "
      "resident %zu module(s) / %llu bytes\n",
      static_cast<unsigned long long>(cache.fetches), static_cast<unsigned long long>(cache.served),
      static_cast<unsigned long long>(cache.evictions),
      static_cast<unsigned long long>(cache.invalidations), cache.resident_modules,
      static_cast<unsigned long long>(cache.resident_bytes));
  if (seus_injected > 0 || store_damages > 0 || store_repairs > 0)
    out += strprintf("faults: seus %d, store damages %d, store repairs %d\n", seus_injected,
                     store_damages, store_repairs);
  const auto total = fleet_stats();
  out += "fleet totals:\n";
  out += strprintf("  loads: requests %d (already_loaded %d, staged_hits %d, cache_hits %d, misses %d)\n",
                   total.requests, total.already_loaded, total.prefetch_hits, total.cache_hits,
                   total.misses);
  out += strprintf("  recovery: retries %d, fallbacks %d, load_failures %d (crc %d, port %d, readback %d)\n",
                   total.retries, total.fallbacks, total.load_failures, total.crc_rejects,
                   total.port_aborts, total.readback_failures);
  out += strprintf("  maintenance: scrubs %d, blanks %d, scrub_repairs %d, health_transitions %d\n",
                   total.scrubs, total.blanks, total.scrub_repairs, total.health_transitions);
  out += strprintf("  time: stall %.3f ms, load %.3f ms, bytes loaded %llu\n",
                   to_ms(total.total_stall), to_ms(total.total_load_time),
                   static_cast<unsigned long long>(total.bytes_loaded));
  for (std::size_t d = 0; d < device_summaries.size(); ++d) {
    const auto& dev = device_summaries[d];
    out += strprintf("device %zu: served %d, breaker %s, opens %d", d, dev.served,
                     breaker_state_name(dev.breaker), dev.breaker_opens);
    if (!dev.breaker_transitions.empty()) {
      out += " [";
      for (std::size_t i = 0; i < dev.breaker_transitions.size(); ++i) {
        if (i > 0) out += " ";
        out += dev.breaker_transitions[i];
      }
      out += "]";
    }
    out += "\n";
    for (const auto& [region, health] : dev.health) {
      const auto res = dev.resident.find(region);
      out += strprintf("  region %-10s %s, resident '%s'\n", region.c_str(),
                       rtr::region_health_name(health),
                       res != dev.resident.end() ? res->second.c_str() : "");
    }
  }
  out += "requests:\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    out += strprintf("  #%-4zu at %9.1f us  %-11s %s/%s prio %d", i, to_us(r.at),
                     request_class_name(r.klass), r.region.c_str(), r.module.c_str(), r.priority);
    if (r.deadline > 0) out += strprintf(" deadline %.1f us", to_us(r.deadline));
    out += strprintf("  -> %s", disposition_name(r.disposition));
    if (r.device >= 0) {
      out += strprintf(" dev%d%s", r.device, r.rerouted ? "*" : "");
      out += strprintf(" %s ready %9.1f us stall %9.1f us",
                       r.klass == RequestClass::Maintenance ? "scrub"
                                                            : rtr::request_kind_name(r.kind),
                       to_us(r.ready_at), to_us(r.stall));
    }
    out += "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------

struct FleetService::Work {
  std::size_t index = 0;
  TimeNs at = 0;
  std::string region;
  std::string module;     ///< actual load target (the safe module on a degraded route)
  std::string requested;  ///< module the log demanded
  RequestClass klass = RequestClass::Demand;
  int priority = 0;
  TimeNs deadline = 0;
  std::uint64_t seq = 0;  ///< admission order, FIFO tie-break within a priority
  bool degraded_route = false;
  bool planned_hit = false;
  bool rerouted = false;
};

struct FleetService::Device {
  explicit Device(const BreakerConfig& breaker_config) : breaker(breaker_config) {}

  int index = 0;
  rtr::NonePrefetch policy;
  std::unique_ptr<rtr::ReconfigManager> manager;
  CircuitBreaker breaker;
  std::optional<fault::FaultInjector> injector;
  std::vector<Work> queue;
  /// (module, request index) read from the fleet tier this tick.
  std::vector<std::pair<std::string, std::size_t>> fleet_reads;
  int served = 0;
  obs::Recorder recorder;
  struct SeuCursor {
    std::vector<fault::SeuEvent> timeline;
    std::size_t next = 0;
  };
  std::map<std::string, SeuCursor> seus;
};

FleetService::FleetService(const synth::DesignBundle& bundle, ServiceConfig config)
    : bundle_(bundle),
      config_(config),
      store_(std::make_unique<rtr::BitstreamStore>(config.store_bandwidth_bytes_per_s,
                                                   config.store_latency)),
      cache_(config.fleet_cache_capacity) {
  PDR_CHECK(!bundle.dynamic_variants.empty(), "FleetService", "bundle has no dynamic regions");
  PDR_CHECK(config_.jobs >= 1, "FleetService", "jobs must be >= 1");
  PDR_CHECK(config_.queue_capacity >= 1, "FleetService", "queue_capacity must be >= 1");
  PDR_CHECK(config_.tick >= 1, "FleetService", "tick must be positive");
}

FleetService::~FleetService() = default;

void FleetService::arm_faults(const fault::FaultSpec& spec) {
  PDR_CHECK(!ran_, "FleetService::arm_faults", "service already ran");
  std::set<std::string> known_modules;
  for (const auto& [region, variants] : bundle_.dynamic_variants)
    for (const auto& v : variants) known_modules.insert(v.name);
  for (const auto& s : spec.seus)
    PDR_CHECK(bundle_.dynamic_variants.count(s.region) > 0, "FleetService::arm_faults",
              "fault spec names unknown region '" + s.region + "'");
  for (const auto& f : spec.fetch_faults)
    PDR_CHECK(known_modules.count(f.module) > 0, "FleetService::arm_faults",
              "fault spec names unknown module '" + f.module + "'");
  for (const auto& d : spec.store_damages)
    PDR_CHECK(known_modules.count(d.module) > 0, "FleetService::arm_faults",
              "fault spec names unknown module '" + d.module + "'");
  for (const auto& r : spec.store_repairs)
    PDR_CHECK(known_modules.count(r.module) > 0, "FleetService::arm_faults",
              "fault spec names unknown module '" + r.module + "'");
  spec_ = spec;
}

void FleetService::set_sinks(obs::Sinks sinks) {
  PDR_CHECK(!ran_, "FleetService::set_sinks", "service already ran");
  sinks_ = sinks;
}

const std::string& FleetService::safe_module_of(const std::string& region) const {
  static const std::string kNone;
  const auto it = safe_of_.find(region);
  return it != safe_of_.end() ? it->second : kNone;
}

void FleetService::build_fleet(int devices) {
  for (const auto& [region, variants] : bundle_.dynamic_variants) {
    frames_of_[region] = bundle_.floorplan.region_frames(region);
    // Safe module: the first variant the armed spec never targets with a
    // permanent store damage or a fetch fault (campaign idiom).
    const auto names = bundle_.variant_names(region);
    std::string safe = names.front();
    for (const auto& name : names) {
      bool targeted = false;
      if (spec_.has_value()) {
        targeted = spec_->find_fetch_fault(name) != nullptr;
        for (const auto& d : spec_->store_damages) targeted = targeted || d.module == name;
      }
      if (!targeted) {
        safe = name;
        break;
      }
    }
    safe_of_[region] = safe;
  }

  const std::uint64_t base_seed =
      spec_.has_value() ? (config_.fault_seed != 0 ? config_.fault_seed : spec_->seed) : 0;
  const int frame_bytes = bundle_.device.frame_bytes();

  for (int d = 0; d < devices; ++d) {
    auto dev = std::make_unique<Device>(config_.breaker);
    dev->index = d;
    rtr::ManagerConfig mc = config_.manager;
    // Per-device jitter stream: a fleet retrying one broken module must
    // not back off in lockstep.
    mc.recovery.jitter_seed += static_cast<std::uint64_t>(d);
    dev->manager = std::make_unique<rtr::ReconfigManager>(bundle_, mc, *store_, dev->policy);
    if (sinks_.attached()) dev->manager->set_sinks(obs::Sinks(dev->recorder));
    for (const auto& [region, safe] : safe_of_) {
      dev->manager->set_safe_module(region, safe);
      // Initial bring-up before any fault hook arms: the full-device
      // bitstream configured the fabric on the bench, not in the field.
      dev->manager->set_resident(region, safe);
    }
    // Register blank streams now, serially: no worker thread may write
    // the shared store mid-drain.
    dev->manager->prepare_blank_streams();
    if (spec_.has_value()) {
      dev->injector.emplace(*spec_, base_seed + 7919ull * static_cast<std::uint64_t>(d));
      fault::FaultInjector* inj = &*dev->injector;
      dev->manager->port().set_fault_hook(
          [inj](Bytes, const std::string&) { return inj->next_port_abort(); });
      dev->manager->set_fetch_fault_hook(
          [inj](const std::string& module, std::span<const std::uint8_t> stored,
                std::vector<std::uint8_t>& corrupted) {
            return inj->maybe_corrupt_fetch(module, stored, corrupted);
          });
      for (const auto& [region, frames] : frames_of_) {
        Device::SeuCursor cursor;
        cursor.timeline = inj->seu_timeline(region, frames.size(), frame_bytes);
        dev->seus[region] = std::move(cursor);
      }
    }
    devices_.push_back(std::move(dev));
  }

  if (spec_.has_value()) {
    store_injector_.emplace(*spec_, base_seed);
    for (const auto& dmg : spec_->store_damages)
      store_events_.push_back(StoreEvent{dmg.at, false, dmg.module});
    for (const auto& rep : spec_->store_repairs)
      store_events_.push_back(StoreEvent{rep.at, true, rep.module});
    // Damage sorts before repair at one instant: a same-tick repair still
    // closes the window it opened.
    std::sort(store_events_.begin(), store_events_.end(),
              [](const StoreEvent& a, const StoreEvent& b) {
                if (a.at != b.at) return a.at < b.at;
                if (a.repair != b.repair) return !a.repair;
                return a.module < b.module;
              });
  }
}

void FleetService::apply_fault_events(TimeNs now) {
  while (store_cursor_ < store_events_.size() && store_events_[store_cursor_].at <= now) {
    const StoreEvent& ev = store_events_[store_cursor_++];
    if (ev.repair) {
      store_->repair(ev.module);
      ++report_.store_repairs;
    } else {
      store_->corrupt(ev.module,
                      store_injector_->damage_byte(ev.module, store_->size_of(ev.module)));
      ++report_.store_damages;
      // The fleet cache holds a now-stale copy; a clean fetch must wait
      // for the repair, so drop it rather than serve damaged bytes.
      cache_.invalidate(ev.module);
      planned_resident_.erase(ev.module);
    }
  }
  for (auto& dev : devices_) {
    for (auto& [region, cursor] : dev->seus) {
      const auto& frames = frames_of_.at(region);
      while (cursor.next < cursor.timeline.size() && cursor.timeline[cursor.next].at <= now) {
        const fault::SeuEvent& ev = cursor.timeline[cursor.next++];
        dev->manager->memory().flip_bit(frames[ev.frame_offset], ev.byte_index, ev.bit);
        ++report_.seus_injected;
      }
    }
  }
}

bool FleetService::enqueue(int device, Work work, bool rerouted) {
  auto& dev = *devices_[device];
  RequestRecord& rec = records_[work.index];
  if (dev.queue.size() >= config_.queue_capacity) {
    if (work.klass == RequestClass::Demand) {
      // Load-shedding priority: evict the lowest-priority, youngest
      // maintenance entry to make room for demand traffic.
      auto victim = dev.queue.end();
      for (auto it = dev.queue.begin(); it != dev.queue.end(); ++it) {
        if (it->klass != RequestClass::Maintenance) continue;
        if (victim == dev.queue.end() || it->priority < victim->priority ||
            (it->priority == victim->priority && it->seq > victim->seq))
          victim = it;
      }
      if (victim != dev.queue.end()) {
        records_[victim->index].disposition = Disposition::Shed;
        dev.queue.erase(victim);
      } else {
        // Explicit backpressure — never a silent drop.
        rec.disposition = Disposition::RejectedQueueFull;
        return false;
      }
    } else {
      // Maintenance yields to demand under pressure.
      rec.disposition = Disposition::Shed;
      return false;
    }
  }
  work.rerouted = rerouted;
  if (work.klass == RequestClass::Demand) {
    // Fleet-cache planning happens here, in the serial phase, so the
    // latency tier a request rides never depends on worker timing.
    if (planned_resident_.count(work.module) > 0) {
      work.planned_hit = true;
      ++report_.cache_planned_hits;
    } else {
      planned_resident_.insert(work.module);
      ++report_.cache_planned_fetches;
    }
  }
  ++report_.admitted;
  dev.queue.push_back(std::move(work));
  return true;
}

void FleetService::admit(const ServiceRequest& req, std::size_t index) {
  RequestRecord& rec = records_[index];
  Work work;
  work.index = index;
  work.at = req.at;
  work.region = req.region;
  work.module = req.module;
  work.requested = req.module;
  work.klass = req.klass;
  work.priority = req.priority;
  work.deadline = req.deadline;
  work.seq = admit_seq_++;

  const int n = static_cast<int>(devices_.size());
  const auto degrade_onto = [&](int device) {
    const std::string& safe = safe_module_of(req.region);
    if (req.klass != RequestClass::Demand || safe.empty() || !config_.degraded_routes) {
      rec.disposition = req.klass == RequestClass::Maintenance
                            ? Disposition::Shed
                            : Disposition::RejectedBreakerOpen;
      return;
    }
    work.module = safe;
    work.degraded_route = true;
    enqueue(device, std::move(work), false);
  };

  if (req.device != kAnyDevice) {
    PDR_CHECK(req.device >= 0 && req.device < n, "FleetService::admit",
              strprintf("request pins device %d but the fleet has %d", req.device, n));
    auto& breaker = devices_[req.device]->breaker;
    if (breaker.would_allow()) {
      breaker.allow_request();
      enqueue(req.device, std::move(work), false);
    } else {
      degrade_onto(req.device);
    }
    return;
  }

  // Any-device routing: least-loaded shard (by queue depth, then index)
  // among those whose breaker admits; record a reroute when the breaker
  // steered us away from the unconstrained choice.
  const auto depth_less = [this](int a, int b) {
    const auto da = devices_[a]->queue.size();
    const auto db = devices_[b]->queue.size();
    if (da != db) return da < db;
    return a < b;
  };
  int first_choice = 0;
  for (int d = 1; d < n; ++d)
    if (depth_less(d, first_choice)) first_choice = d;
  int chosen = -1;
  for (int d = 0; d < n; ++d) {
    if (!devices_[d]->breaker.would_allow()) continue;
    if (chosen < 0 || depth_less(d, chosen)) chosen = d;
  }
  if (chosen >= 0) {
    devices_[chosen]->breaker.allow_request();
    enqueue(chosen, std::move(work), chosen != first_choice);
  } else {
    // Every breaker is open: serve degraded on the least-loaded shard.
    degrade_onto(first_choice);
  }
}

void FleetService::execute(Device& dev, const Work& work, TimeNs now) {
  RequestRecord& rec = records_[work.index];
  rec.device = dev.index;
  rec.rerouted = work.rerouted;
  ++dev.served;
  bool failure = false;
  try {
    if (work.klass == RequestClass::Maintenance) {
      const std::string& resident = dev.manager->loaded(work.region);
      rec.ready_at = resident.empty() ? now : dev.manager->scrub(work.region, now);
      // Deadline tie-break: a scrub that finishes exactly when the
      // deadline expires (ready_at - at == deadline) is Completed, not
      // TimedOut — the comparison is strictly '>', matching the serial
      // reference drain. Pinned by svc_test DeadlineTieBreak tests.
      rec.disposition = (work.deadline > 0 && rec.ready_at - work.at > work.deadline)
                            ? Disposition::TimedOut
                            : Disposition::Completed;
    } else {
      // Fleet tier first: note the read; the coordinator replays it into
      // the cache ledger after the drain.
      dev.fleet_reads.emplace_back(work.module, work.index);
      if (work.planned_hit) dev.manager->preload_staged(work.region, work.module, now);
      const auto out = dev.manager->request(work.region, work.module, now);
      rec.kind = out.kind;
      rec.ready_at = out.ready_at;
      const std::string& resident = dev.manager->loaded(work.region);
      if (resident.empty()) {
        rec.disposition = Disposition::Failed;
        failure = true;
      } else if (work.degraded_route) {
        rec.disposition = Disposition::Degraded;
      } else if (resident != work.requested) {
        // Recovery fell back to the safe module: served, but not what the
        // log demanded — and a real failure as the breaker counts them.
        rec.disposition = Disposition::Degraded;
        failure = true;
      } else if (work.deadline > 0 && rec.ready_at - work.at > work.deadline) {
        rec.disposition = Disposition::TimedOut;
      } else {
        // Deadline tie-break: a load completing exactly on the deadline
        // tick (ready_at - at == deadline) wins — strict '>' above, the
        // same precedence the serial reference drain applies. Pinned by
        // svc_test DeadlineTieBreak tests.
        rec.disposition = Disposition::Completed;
      }
    }
  } catch (const Error&) {
    rec.disposition = Disposition::Failed;
    rec.ready_at = now;
    failure = true;
  }
  rec.stall = rec.ready_at - work.at;
  // Degraded-route servings never feed the breaker: a device cannot heal
  // its breaker by answering with the fallback personality.
  if (!work.degraded_route) {
    if (failure)
      dev.breaker.record_failure();
    else
      dev.breaker.record_success();
  }
}

void FleetService::drain_device(Device& dev, TimeNs now, TimeNs tick_end) {
  // Drain in (priority desc, admission order) until the config port is
  // busy past this tick — a cold-load storm leaves backlog behind and the
  // admission queue pushes back.
  while (!dev.queue.empty() && dev.manager->port_free_at() <= tick_end) {
    auto best = dev.queue.begin();
    for (auto it = std::next(dev.queue.begin()); it != dev.queue.end(); ++it) {
      if (it->priority > best->priority ||
          (it->priority == best->priority && it->seq < best->seq))
        best = it;
    }
    const Work work = std::move(*best);
    dev.queue.erase(best);
    execute(dev, work, now);
  }
}

ServiceReport FleetService::run(const RequestLog& log) {
  PDR_CHECK(!ran_, "FleetService::run", "service instances run once");
  ran_ = true;
  PDR_CHECK(log.devices >= 1, "FleetService::run", "log declares no devices");
  // The PDR120/PDR121 checks: an unknown name must not reach the drain.
  for (std::size_t i = 0; i < log.requests.size(); ++i) {
    const ServiceRequest& req = log.requests[i];
    const auto region = bundle_.dynamic_variants.find(req.region);
    PDR_CHECK(region != bundle_.dynamic_variants.end(), "FleetService::run",
              strprintf("request %zu (at %.1f us) names unknown region '%s'", i + 1,
                        to_us(req.at), req.region.c_str()));
    PDR_CHECK(std::any_of(region->second.begin(), region->second.end(),
                          [&req](const auto& v) { return v.name == req.module; }),
              "FleetService::run",
              strprintf("request %zu (at %.1f us) demands module '%s' but region '%s' has no "
                        "such variant",
                        i + 1, to_us(req.at), req.module.c_str(), req.region.c_str()));
  }
  build_fleet(log.devices);

  const std::size_t n = log.requests.size();
  records_.assign(n, RequestRecord{});
  for (std::size_t i = 0; i < n; ++i) {
    const ServiceRequest& req = log.requests[i];
    RequestRecord& rec = records_[i];
    rec.at = req.at;
    rec.requested_device = req.device;
    rec.region = req.region;
    rec.module = req.module;
    rec.klass = req.klass;
    rec.priority = req.priority;
    rec.deadline = req.deadline;
  }
  report_.devices = log.devices;
  report_.tick_length = config_.tick;

  const auto queues_empty = [this] {
    for (const auto& dev : devices_)
      if (!dev->queue.empty()) return false;
    return true;
  };

  std::size_t next_arrival = 0;
  int tick_index = 0;
  while (next_arrival < n || !queues_empty()) {
    const TimeNs now = static_cast<TimeNs>(tick_index) * config_.tick;
    const TimeNs tick_end = now + config_.tick;

    // Serial coordinator phase.
    apply_fault_events(now);
    for (auto& dev : devices_) dev->breaker.tick();
    while (next_arrival < n && log.requests[next_arrival].at <= now)
      admit(log.requests[next_arrival], next_arrival), ++next_arrival;

    // Parallel drain phase: workers touch only device-owned state, their
    // requests' record slots and the read-only store.
    if (!queues_empty())
      util::parallel_for(config_.jobs, devices_.size(),
                         [&](std::size_t i) { drain_device(*devices_[i], now, tick_end); });

    // Serial collection phase: replay the tick's fleet-tier reads into the
    // ledger, then enforce its bound. Neither the replay nor the
    // stamp-based eviction order depends on worker timing.
    for (auto& dev : devices_) {
      for (const auto& [module, index] : dev->fleet_reads)
        cache_.touch(module, index, tick_index, store_->size_of(module));
      dev->fleet_reads.clear();
    }
    for (const auto& name : cache_.sweep()) planned_resident_.erase(name);
    ++tick_index;
  }
  report_.ticks = tick_index;

  for (const RequestRecord& rec : records_) {
    switch (rec.disposition) {
      case Disposition::Completed: ++report_.completed; break;
      case Disposition::Degraded: ++report_.degraded; break;
      case Disposition::Failed: ++report_.failed; break;
      case Disposition::TimedOut: ++report_.timed_out; break;
      case Disposition::RejectedQueueFull: ++report_.rejected_queue_full; break;
      case Disposition::RejectedBreakerOpen: ++report_.rejected_breaker_open; break;
      case Disposition::Shed: ++report_.shed; break;
    }
    if (rec.rerouted) ++report_.rerouted;
  }
  report_.cache = cache_.stats();
  for (const auto& dev : devices_) {
    DeviceSummary summary;
    summary.served = dev->served;
    summary.breaker = dev->breaker.state();
    summary.breaker_opens = dev->breaker.opens();
    summary.breaker_transitions = dev->breaker.transitions();
    summary.stats = dev->manager->stats();
    summary.health = summary.stats.region_health;
    for (const auto& [region, frames] : frames_of_)
      summary.resident[region] = dev->manager->loaded(region);
    report_.device_summaries.push_back(std::move(summary));
  }
  report_.records = records_;

  // Deterministic observability merge, in device order (the
  // flow::ScenarioRunner discipline).
  if (sinks_.attached())
    for (const auto& dev : devices_) sinks_.merge(dev->recorder, strprintf("dev%d/", dev->index));
  sinks_.count("svc.admitted", report_.admitted);
  sinks_.count("svc.completed", report_.completed);
  sinks_.count("svc.degraded", report_.degraded);
  sinks_.count("svc.failed", report_.failed);
  sinks_.count("svc.timed_out", report_.timed_out);
  sinks_.count("svc.rejected_queue_full", report_.rejected_queue_full);
  sinks_.count("svc.rejected_breaker_open", report_.rejected_breaker_open);
  sinks_.count("svc.shed", report_.shed);
  sinks_.count("svc.rerouted", report_.rerouted);
  sinks_.count("svc.cache.fetches", static_cast<double>(report_.cache.fetches));
  sinks_.count("svc.cache.served", static_cast<double>(report_.cache.served));
  sinks_.count("svc.cache.evictions", static_cast<double>(report_.cache.evictions));
  sinks_.count("svc.seus_injected", report_.seus_injected);
  sinks_.count("svc.store_damages", report_.store_damages);
  sinks_.count("svc.store_repairs", report_.store_repairs);
  return report_;
}

}  // namespace pdr::svc
