// pdr::svc::FleetService — a deterministic fleet of reconfigurable
// devices behind admission control.
//
// The service owns N modeled devices (one pdr::fabric +
// rtr::ReconfigManager shard each) and drains a recorded request stream
// (svc::RequestLog) through them. Robustness machinery on the way in:
//
//  - bounded per-shard admission queues with explicit backpressure: a
//    demand arriving at a full queue is Rejected{QueueFull} (never a
//    silent drop), after maintenance traffic in the queue was shed to
//    make room;
//  - load-shedding priorities: maintenance yields to demand under
//    pressure (a maintenance arrival at a saturated shard is Shed);
//  - per-request deadlines with timeout classification;
//  - retry-with-backoff riding rtr::RecoveryConfig (jitter seeded per
//    device so a fleet never retries in lockstep);
//  - a per-device circuit breaker fed by the manager's health/fallback
//    signals: Open reroutes any-device traffic to healthy shards and
//    serves pinned requests degraded via the safe module;
//  - a fleet bitstream cache ledger (svc::FleetCache): N devices
//    demanding one module fetch it from external memory once.
//
// Determinism contract: run() is byte-identical for any `jobs` value.
// The drain alternates serial coordinator phases (fault events, breaker
// ticks, admission, routing, cache planning, cache-ledger replay,
// eviction sweeps) with parallel per-device phases in which worker
// threads touch only device-owned state, their requests' record slots
// and the read-only store; per-device observability sinks merge in
// device order after the drain — the same discipline
// flow::ScenarioRunner pins for sweeps.
//
// Virtual time advances in fixed ticks: each tick admits every arrival
// up to `now`, then each device drains its queue (priority order) until
// its config port is busy past the tick boundary — so cold-load storms
// build real backlog and exercise the backpressure path.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault_spec.hpp"
#include "fault/injector.hpp"
#include "obs/sinks.hpp"
#include "rtr/manager.hpp"
#include "svc/breaker.hpp"
#include "svc/fleet_cache.hpp"
#include "svc/request_log.hpp"
#include "synth/flow.hpp"
#include "util/units.hpp"

namespace pdr::svc {

struct ServiceConfig {
  int jobs = 1;                      ///< worker threads for the parallel phases
  std::size_t queue_capacity = 8;    ///< per-shard admission queue bound
  TimeNs tick = 1'000'000;           ///< scheduling quantum (1 ms)
  Bytes fleet_cache_capacity = 8ull << 20;  ///< shared cache bound (0 = unbounded)
  BreakerConfig breaker;
  /// When a pinned device's breaker is open (or every breaker is, for
  /// routed traffic), serve demands degraded via the region's safe module
  /// instead of rejecting. Strict fleets (wrong personality worse than no
  /// service) turn this off and get RejectedBreakerOpen.
  bool degraded_routes = true;
  rtr::ManagerConfig manager;        ///< per-device template
  /// External-store timing model shared by the fleet.
  double store_bandwidth_bytes_per_s = 16.7e6;
  TimeNs store_latency = 10'000;
  std::uint64_t fault_seed = 0;      ///< campaign seed override (0 = the spec's)
};

/// Final classification of one request — every entry of the log gets
/// exactly one; nothing is ever silently dropped.
enum class Disposition : std::uint8_t {
  Completed,           ///< demanded module loaded (or scrub done) in time
  Degraded,            ///< served by the safe module, not the demanded one
  Failed,              ///< region unusable after retries and fallback
  TimedOut,            ///< served, but past the request's deadline
  RejectedQueueFull,   ///< admission backpressure: shard queue full
  RejectedBreakerOpen, ///< device breaker open, no degraded route available
  Shed,                ///< maintenance dropped under demand pressure
};

const char* disposition_name(Disposition d);

struct RequestRecord {
  // Echo of the request (records are self-contained for the report).
  TimeNs at = 0;
  int requested_device = kAnyDevice;
  std::string region;
  std::string module;
  RequestClass klass = RequestClass::Demand;
  int priority = 0;
  TimeNs deadline = 0;
  // Outcome.
  int device = -1;  ///< shard that served it (-1 = never admitted)
  Disposition disposition = Disposition::Failed;
  rtr::RequestKind kind = rtr::RequestKind::Miss;
  bool rerouted = false;  ///< any-device request steered around a breaker
  TimeNs ready_at = 0;
  TimeNs stall = 0;  ///< ready_at - arrival (queue wait + load)
};

struct DeviceSummary {
  int served = 0;  ///< work items executed on this shard
  BreakerState breaker = BreakerState::Closed;
  int breaker_opens = 0;
  std::vector<std::string> breaker_transitions;
  std::map<std::string, rtr::RegionHealth> health;
  std::map<std::string, std::string> resident;
  rtr::ManagerStats stats;
};

struct ServiceReport {
  int devices = 0;
  int ticks = 0;
  TimeNs tick_length = 0;
  // Dispositions (sum == log size).
  int completed = 0;
  int degraded = 0;
  int failed = 0;
  int timed_out = 0;
  int rejected_queue_full = 0;
  int rejected_breaker_open = 0;
  int shed = 0;
  // Flow accounting.
  int admitted = 0;  ///< requests that reached a shard queue
  int rerouted = 0;
  int cache_planned_fetches = 0;  ///< demands planned to pay the cold path
  int cache_planned_hits = 0;     ///< demands planned to ride the cache tier
  FleetCache::Stats cache;
  // Fault-campaign accounting (zero when no spec is armed).
  int seus_injected = 0;
  int store_damages = 0;
  int store_repairs = 0;
  std::vector<DeviceSummary> device_summaries;
  std::vector<RequestRecord> records;

  /// Sum of every shard's manager counters.
  rtr::ManagerStats fleet_stats() const;

  /// Deterministic text report — byte-identical across jobs values and
  /// across runs of the same (bundle, log, config, spec) tuple.
  std::string to_string() const;
};

class FleetService {
 public:
  /// `bundle` must outlive the service; every device shards it.
  FleetService(const synth::DesignBundle& bundle, ServiceConfig config);
  ~FleetService();

  /// Arms a fault campaign: per-device injectors (port aborts, fetch
  /// corruption, SEUs; independent streams per device) plus shared-store
  /// damage/repair windows. Validates spec names against the bundle.
  void arm_faults(const fault::FaultSpec& spec);

  /// Observability handle for run(): each device records into its own
  /// recorder, merged in device order under "dev<i>/" track prefixes;
  /// counters export under "svc.".
  void set_sinks(obs::Sinks sinks);

  /// Drains the log (devices sized by log.devices) and returns the
  /// report. One run per service instance. Throws pdr::Error naming the
  /// request when one names a region the bundle lacks or a module that
  /// is not a variant of its region.
  ServiceReport run(const RequestLog& log);

 private:
  struct Device;
  struct Work;

  void build_fleet(int devices);
  void admit(const ServiceRequest& req, std::size_t index);
  bool enqueue(int device, Work work, bool rerouted);
  void drain_device(Device& dev, TimeNs now, TimeNs tick_end);
  void execute(Device& dev, const Work& work, TimeNs now);
  void apply_fault_events(TimeNs now);
  const std::string& safe_module_of(const std::string& region) const;

  const synth::DesignBundle& bundle_;
  ServiceConfig config_;
  std::optional<fault::FaultSpec> spec_;
  std::unique_ptr<rtr::BitstreamStore> store_;
  FleetCache cache_;
  std::map<std::string, std::vector<fabric::FrameAddress>> frames_of_;
  /// Seed source for store-damage byte positions (serial phase only).
  std::optional<fault::FaultInjector> store_injector_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::map<std::string, std::string> safe_of_;
  std::set<std::string> planned_resident_;  ///< cache contents as admission plans them
  std::vector<RequestRecord> records_;
  ServiceReport report_;
  std::uint64_t admit_seq_ = 0;
  /// Shared-store damage/repair events, sorted by time; cursor advances
  /// in the serial phase only.
  struct StoreEvent {
    TimeNs at = 0;
    bool repair = false;
    std::string module;
  };
  std::vector<StoreEvent> store_events_;
  std::size_t store_cursor_ = 0;
  obs::Sinks sinks_;
  bool ran_ = false;
};

}  // namespace pdr::svc
