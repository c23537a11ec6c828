#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fault/fault_spec.hpp"
#include "rtr/manager.hpp"
#include "rtr/prefetch.hpp"
#include "svc/breaker.hpp"
#include "svc/fleet_cache.hpp"
#include "svc/request_log.hpp"
#include "svc/service.hpp"
#include "svc/service_rules.hpp"
#include "synth/flow.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace pdr::svc {
namespace {

using namespace pdr::literals;

synth::DesignBundle test_bundle() {
  synth::ModularDesignFlow flow(fabric::xc2v2000());
  flow.add_static("ifft", "ifft", {{"n", 64}});
  flow.add_region("D1", {{"qpsk", "qpsk_mapper", {}}, {"qam16", "qam16_mapper", {}}});
  return flow.run();
}

// --- circuit breaker -------------------------------------------------------------

TEST(Breaker, TripsAfterConsecutiveFailures) {
  CircuitBreaker breaker({.failure_threshold = 3, .cooldown_ticks = 2, .probe_budget = 1});
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
  breaker.record_failure();
  breaker.record_failure();
  // A success resets the consecutive count.
  breaker.record_success();
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::Open);
  EXPECT_EQ(breaker.opens(), 1);
  EXPECT_FALSE(breaker.would_allow());
  EXPECT_FALSE(breaker.allow_request());
}

TEST(Breaker, CooldownProbeAndRecovery) {
  CircuitBreaker breaker({.failure_threshold = 1, .cooldown_ticks = 2, .probe_budget = 1});
  breaker.record_failure();
  ASSERT_EQ(breaker.state(), BreakerState::Open);
  breaker.tick();
  EXPECT_EQ(breaker.state(), BreakerState::Open);
  breaker.tick();
  EXPECT_EQ(breaker.state(), BreakerState::HalfOpen);
  // One probe slot: the first admission consumes it, the second is refused
  // without consuming anything.
  EXPECT_TRUE(breaker.would_allow());
  EXPECT_TRUE(breaker.allow_request());
  EXPECT_FALSE(breaker.would_allow());
  EXPECT_FALSE(breaker.allow_request());
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::Closed);
  ASSERT_EQ(breaker.transitions().size(), 3u);
  EXPECT_NE(breaker.transitions()[0].find("closed->open"), std::string::npos);
  EXPECT_NE(breaker.transitions()[1].find("open->half_open"), std::string::npos);
  EXPECT_NE(breaker.transitions()[2].find("half_open->closed"), std::string::npos);
}

TEST(Breaker, FailedProbeReopens) {
  CircuitBreaker breaker({.failure_threshold = 1, .cooldown_ticks = 1, .probe_budget = 1});
  breaker.record_failure();
  breaker.tick();
  ASSERT_EQ(breaker.state(), BreakerState::HalfOpen);
  EXPECT_TRUE(breaker.allow_request());
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::Open);
  EXPECT_EQ(breaker.opens(), 2);
}

// --- fleet cache -----------------------------------------------------------------

TEST(FleetCacheTest, SweepEvictsLowestStampFirst) {
  FleetCache cache(5);  // fits one 4-byte module, not two
  cache.touch("older", 1, 0, 4);
  cache.touch("newer", 2, 0, 4);
  const auto evicted = cache.sweep();
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "older");
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().resident_modules, 1u);
  EXPECT_EQ(cache.stats().resident_bytes, 4u);
  cache.touch("newer", 3, 1, 4);  // still resident: served
  EXPECT_EQ(cache.stats().fetches, 2u);
  EXPECT_EQ(cache.stats().served, 1u);
}

TEST(FleetCacheTest, StampTakesMaxOverCallers) {
  FleetCache cache(5);
  cache.touch("a", 9, 0, 4);
  cache.touch("b", 2, 0, 4);
  cache.touch("a", 1, 0, 4);  // a lower stamp never lowers a's
  const auto evicted = cache.sweep();
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "b");
}

TEST(FleetCacheTest, InvalidateDropsEntryAndNextFetchRetries) {
  FleetCache cache(0);
  cache.touch("m", 1, 0, 3);
  cache.invalidate("m");
  cache.invalidate("absent");  // no-op
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().resident_modules, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 0u);
  cache.touch("m", 2, 1, 3);
  EXPECT_EQ(cache.stats().fetches, 2u);
  EXPECT_EQ(cache.stats().served, 0u);
  EXPECT_EQ(cache.stats().resident_bytes, 3u);
}

TEST(FleetCacheTest, CoalescedCountsServedTouchesInTheFetchTick) {
  FleetCache cache(0);
  cache.touch("m", 1, 4, 1);  // fetched in tick 4
  cache.touch("m", 2, 4, 1);  // same tick: coalesced onto the fetch
  cache.touch("m", 3, 4, 1);
  cache.touch("m", 4, 5, 1);  // a later tick: served from residency
  const auto& stats = cache.stats();
  EXPECT_EQ(stats.fetches, 1u);
  EXPECT_EQ(stats.served, 3u);
  EXPECT_EQ(stats.coalesced, 2u);
}

// --- request log DSL -------------------------------------------------------------

TEST(RequestLogTest, ParsesFieldsInAnyOrder) {
  const RequestLog log = parse_request_log(
      "# stream\n"
      "fleet devices 4\n"
      "request module qam16 at_us 250 region D1 class maintenance device any\n"
      "request at_us 100 device 2 region D1 module qpsk class demand priority 5 deadline_us 800\n");
  EXPECT_EQ(log.devices, 4);
  ASSERT_EQ(log.requests.size(), 2u);
  // Sorted by arrival, not file order.
  EXPECT_EQ(log.requests[0].at, 100_us);
  EXPECT_EQ(log.requests[0].device, 2);
  EXPECT_EQ(log.requests[0].module, "qpsk");
  EXPECT_EQ(log.requests[0].klass, RequestClass::Demand);
  EXPECT_EQ(log.requests[0].priority, 5);
  EXPECT_EQ(log.requests[0].deadline, 800_us);
  EXPECT_EQ(log.requests[1].at, 250_us);
  EXPECT_EQ(log.requests[1].device, kAnyDevice);
  EXPECT_EQ(log.requests[1].klass, RequestClass::Maintenance);
  EXPECT_EQ(log.requests[1].deadline, 0);
}

TEST(RequestLogTest, RejectsBadInput) {
  EXPECT_THROW(parse_request_log("request at_us 1 region D1 module m\n"), pdr::Error);  // no fleet
  EXPECT_THROW(parse_request_log("fleet devices 0\n"), pdr::Error);
  EXPECT_THROW(parse_request_log("fleet devices 2\nrequest region D1 module m\n"), pdr::Error);
  EXPECT_THROW(parse_request_log("fleet devices 2\nrequest at_us 1 module m\n"), pdr::Error);
  EXPECT_THROW(parse_request_log("fleet devices 2\nrequest at_us 1 region D1\n"), pdr::Error);
  EXPECT_THROW(
      parse_request_log("fleet devices 2\nrequest at_us 1 region D1 module m class bogus\n"),
      pdr::Error);
  EXPECT_THROW(
      parse_request_log("fleet devices 2\nrequest at_us 1 region D1 module m deadline_us 0\n"),
      pdr::Error);
  try {
    parse_request_log("fleet devices 2\nfrobnicate\n");
    FAIL() << "expected pdr::Error";
  } catch (const pdr::Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(RequestLogTest, WriteParseRoundTrip) {
  RequestLog log;
  log.devices = 3;
  log.requests.push_back({100_us, 1, "D1", "qpsk", RequestClass::Demand, 4, 9_ms});
  log.requests.push_back({250_us, kAnyDevice, "D1", "qam16", RequestClass::Maintenance, 0, 0});
  const std::string text = write_request_log(log);
  const RequestLog back = parse_request_log(text);
  EXPECT_EQ(back.devices, log.devices);
  ASSERT_EQ(back.requests.size(), log.requests.size());
  for (std::size_t i = 0; i < log.requests.size(); ++i) {
    EXPECT_EQ(back.requests[i].at, log.requests[i].at) << i;
    EXPECT_EQ(back.requests[i].device, log.requests[i].device) << i;
    EXPECT_EQ(back.requests[i].region, log.requests[i].region) << i;
    EXPECT_EQ(back.requests[i].module, log.requests[i].module) << i;
    EXPECT_EQ(back.requests[i].klass, log.requests[i].klass) << i;
    EXPECT_EQ(back.requests[i].priority, log.requests[i].priority) << i;
    EXPECT_EQ(back.requests[i].deadline, log.requests[i].deadline) << i;
  }
}

TEST(RequestLogTest, SniffsLogsByLeadingDirective) {
  EXPECT_TRUE(looks_like_request_log("# comment\nfleet devices 2\n"));
  EXPECT_FALSE(looks_like_request_log("region D1 {\n}\n"));
  EXPECT_FALSE(looks_like_request_log(""));
}

TEST(RequestLogTest, GeneratorIsDeterministicAndRoundTrips) {
  TrafficOptions options;
  options.devices = 5;
  options.requests = 40;
  options.seed = 42;
  options.deadline = 20_ms;
  const std::vector<std::pair<std::string, std::vector<std::string>>> catalog = {
      {"D1", {"qpsk", "qam16"}}};
  const RequestLog a = generate_request_log(options, catalog);
  const RequestLog b = generate_request_log(options, catalog);
  EXPECT_EQ(write_request_log(a), write_request_log(b));
  options.seed = 43;
  const RequestLog c = generate_request_log(options, catalog);
  EXPECT_NE(write_request_log(a), write_request_log(c));
  ASSERT_EQ(a.requests.size(), 40u);
  const RequestLog back = parse_request_log(write_request_log(a));
  EXPECT_EQ(back.requests.size(), a.requests.size());
  for (std::size_t i = 1; i < a.requests.size(); ++i)
    EXPECT_LE(a.requests[i - 1].at, a.requests[i].at);
}

// --- fleet service ---------------------------------------------------------------

TEST(FleetServiceTest, CleanDrainCompletesEverything) {
  const auto bundle = test_bundle();
  ServiceConfig config;
  FleetService service(bundle, config);
  const RequestLog log = parse_request_log(
      "fleet devices 2\n"
      "request at_us 0    device 0 region D1 module qam16 class demand priority 1\n"
      "request at_us 0    device 1 region D1 module qam16 class demand priority 1\n"
      "request at_us 9000 device 0 region D1 module qam16 class demand\n"
      "request at_us 9000 device 1 region D1 module qpsk  class maintenance\n");
  const ServiceReport report = service.run(log);
  EXPECT_EQ(report.completed, 4);
  EXPECT_EQ(report.degraded + report.failed + report.timed_out + report.rejected_queue_full +
                report.rejected_breaker_open + report.shed,
            0);
  EXPECT_EQ(report.admitted, 4);
  // The shared cache fetched qam16 exactly once for the whole fleet.
  EXPECT_EQ(report.cache.fetches, 1u);
  EXPECT_EQ(report.cache_planned_fetches, 1);
  EXPECT_EQ(report.cache_planned_hits, 2);  // every later qam16 demand rides the cache tier
  ASSERT_EQ(report.device_summaries.size(), 2u);
  for (const auto& dev : report.device_summaries) {
    EXPECT_EQ(dev.breaker, BreakerState::Closed);
    EXPECT_EQ(dev.breaker_opens, 0);
  }
}

TEST(FleetServiceTest, WarmupBurstFetchesOncePerModule) {
  const auto bundle = test_bundle();
  ServiceConfig config;
  config.jobs = 4;
  FleetService service(bundle, config);
  const RequestLog log = parse_request_log(
      "fleet devices 4\n"
      "request at_us 0 device 0 region D1 module qam16 class demand\n"
      "request at_us 0 device 1 region D1 module qam16 class demand\n"
      "request at_us 0 device 2 region D1 module qam16 class demand\n"
      "request at_us 0 device 3 region D1 module qam16 class demand\n");
  const ServiceReport report = service.run(log);
  EXPECT_EQ(report.completed, 4);
  EXPECT_EQ(report.cache.fetches, 1u);
  EXPECT_EQ(report.cache.served, 3u);
  EXPECT_EQ(report.cache_planned_fetches, 1);
  EXPECT_EQ(report.cache_planned_hits, 3);
}

TEST(FleetServiceTest, BackpressureShedsMaintenanceThenRejects) {
  const auto bundle = test_bundle();
  ServiceConfig config;
  config.queue_capacity = 1;
  // Starve the store so the first cold load pins the port for many ticks
  // and the queue genuinely backs up.
  config.store_bandwidth_bytes_per_s = 1e6;
  FleetService service(bundle, config);
  // All in one admission tick: maintenance enqueues, the first demand
  // sheds it, the second finds the queue full of demand and is rejected.
  // Two more demands arrive while the port is still busy with the cold
  // load: one occupies the queue slot, the next is rejected.
  const RequestLog log = parse_request_log(
      "fleet devices 1\n"
      "request at_us 100  device 0 region D1 module qpsk  class maintenance\n"
      "request at_us 200  device 0 region D1 module qam16 class demand priority 2\n"
      "request at_us 300  device 0 region D1 module qam16 class demand priority 2\n"
      "request at_us 1500 device 0 region D1 module qam16 class demand priority 1\n"
      "request at_us 2500 device 0 region D1 module qam16 class demand priority 1\n");
  const ServiceReport report = service.run(log);
  EXPECT_EQ(report.shed, 1);
  EXPECT_EQ(report.rejected_queue_full, 2);
  EXPECT_EQ(report.completed, 2);
  // The maintenance reached the queue before being shed: it counts as
  // admitted alongside the two demands that executed.
  EXPECT_EQ(report.admitted, 3);
  EXPECT_EQ(report.failed + report.degraded + report.timed_out, 0);
  // The shed maintenance and rejected demands never reached a shard.
  for (const auto& rec : report.records) {
    if (rec.disposition == Disposition::Shed ||
        rec.disposition == Disposition::RejectedQueueFull) {
      EXPECT_EQ(rec.device, -1);
    }
  }
}

TEST(FleetServiceTest, DeadlineMissesClassifyAsTimedOut) {
  const auto bundle = test_bundle();
  ServiceConfig config;
  FleetService service(bundle, config);
  // A cold qam16 load takes milliseconds; a 50 us deadline cannot hold.
  const RequestLog log = parse_request_log(
      "fleet devices 1\n"
      "request at_us 0 device 0 region D1 module qam16 class demand deadline_us 50\n");
  const ServiceReport report = service.run(log);
  EXPECT_EQ(report.timed_out, 1);
  EXPECT_EQ(report.completed, 0);
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_GT(report.records[0].stall, 50_us);
  // Served late, not dropped: the module did land.
  EXPECT_EQ(report.device_summaries[0].resident.at("D1"), "qam16");
}

// S3 satellite: the deadline comparison is strictly '>' — a load whose
// stall lands exactly on the deadline tick is Completed; one nanosecond
// less of budget flips it to TimedOut. Logs are built as structs (not
// the _us DSL) so the probe-measured stall carries over to the deadline
// without microsecond rounding.
TEST(FleetServiceTest, DeadlineTieBreakExactTieCompletes) {
  const auto bundle = test_bundle();
  const auto run_with_deadline = [&](TimeNs deadline) {
    RequestLog log;
    log.devices = 1;
    ServiceRequest req;
    req.at = 0;
    req.device = 0;
    req.region = "D1";
    req.module = "qam16";
    req.klass = RequestClass::Demand;
    req.deadline = deadline;
    log.requests.push_back(req);
    FleetService service(bundle, ServiceConfig{});
    return service.run(log);
  };
  // Probe: measure the exact cold-load stall with no deadline armed.
  const ServiceReport probe = run_with_deadline(0);
  ASSERT_EQ(probe.records.size(), 1u);
  const TimeNs stall = probe.records[0].stall;
  ASSERT_GT(stall, 0);

  // deadline == stall: the exact tie is Completed, with exact counts.
  const ServiceReport tie = run_with_deadline(stall);
  EXPECT_EQ(tie.completed, 1);
  EXPECT_EQ(tie.timed_out, 0);
  ASSERT_EQ(tie.records.size(), 1u);
  EXPECT_EQ(tie.records[0].disposition, Disposition::Completed);
  EXPECT_EQ(tie.records[0].stall, stall);

  // One nanosecond tighter and the same load misses.
  const ServiceReport miss = run_with_deadline(stall - 1);
  EXPECT_EQ(miss.completed, 0);
  EXPECT_EQ(miss.timed_out, 1);
  ASSERT_EQ(miss.records.size(), 1u);
  EXPECT_EQ(miss.records[0].disposition, Disposition::TimedOut);
}

TEST(FleetServiceTest, DeadlineTieBreakAppliesToMaintenanceScrub) {
  // The maintenance path has its own disposition site; pin the same
  // strict-'>' tie-break there.
  const auto bundle = test_bundle();
  const auto run_with_deadline = [&](TimeNs deadline) {
    RequestLog log;
    log.devices = 1;
    ServiceRequest load;
    load.at = 0;
    load.device = 0;
    load.region = "D1";
    load.module = "qpsk";
    log.requests.push_back(load);
    ServiceRequest scrub;
    scrub.at = 50'000'000;  // well after the demand load settles
    scrub.device = 0;
    scrub.region = "D1";
    scrub.module = "qpsk";
    scrub.klass = RequestClass::Maintenance;
    scrub.deadline = deadline;
    log.requests.push_back(scrub);
    FleetService service(bundle, ServiceConfig{});
    return service.run(log);
  };
  const ServiceReport probe = run_with_deadline(0);
  ASSERT_EQ(probe.records.size(), 2u);
  const TimeNs stall = probe.records[1].stall;
  ASSERT_GT(stall, 0);
  const ServiceReport tie = run_with_deadline(stall);
  EXPECT_EQ(tie.records[1].disposition, Disposition::Completed);
  EXPECT_EQ(tie.timed_out, 0);
  const ServiceReport miss = run_with_deadline(stall - 1);
  EXPECT_EQ(miss.records[1].disposition, Disposition::TimedOut);
  EXPECT_EQ(miss.timed_out, 1);
}

TEST(FleetServiceTest, DeadlineTieBreakIsByteIdenticalAcrossJobs) {
  // Exact-tie deadlines are the sharpest determinism probe: any
  // jobs-dependent reordering that shifts ready_at by one tick flips a
  // disposition and changes the report text.
  const auto bundle = test_bundle();
  constexpr int kDevices = 4;
  const auto make_log = [&](TimeNs deadline) {
    RequestLog log;
    log.devices = kDevices;
    for (int d = 0; d < kDevices; ++d) {
      ServiceRequest req;
      req.at = 0;
      req.device = d;
      req.region = "D1";
      req.module = "qam16";
      req.klass = RequestClass::Demand;
      req.deadline = deadline;
      log.requests.push_back(req);
    }
    return log;
  };
  FleetService probe_service(bundle, ServiceConfig{});
  const ServiceReport probe = probe_service.run(make_log(0));
  ASSERT_EQ(probe.records.size(), static_cast<std::size_t>(kDevices));
  const TimeNs stall = probe.records[0].stall;
  ASSERT_GT(stall, 0);
  const auto run_with_jobs = [&](int jobs) {
    ServiceConfig config;
    config.jobs = jobs;
    FleetService service(bundle, config);
    return service.run(make_log(stall)).to_string();
  };
  const std::string serial = run_with_jobs(1);
  EXPECT_NE(serial.find("completed"), std::string::npos);
  EXPECT_EQ(run_with_jobs(4), serial);
  EXPECT_EQ(run_with_jobs(8), serial);
}

// One device, a store-damage window on qam16 and exact arrival spacing
// walk the breaker through its whole lifecycle with exact disposition
// counts:
//   t=1ms   demand qam16: fetch CRC-fails, retry, fall back -> Degraded (failure 1)
//   t=20ms  demand qam16: same -> Degraded (failure 2) => breaker opens
//   t=40ms  demand qam16 while Open: degraded route via qpsk (no breaker feed)
//   t=41ms  maintenance while Open: Shed
//   t=45ms  store repaired
//   t=60ms  demand qam16: half-open probe succeeds -> Completed => breaker closes
//   t=80ms  demand qam16 (resident): Completed
TEST(FleetServiceTest, BreakerLifecycleWithExactCounts) {
  const auto bundle = test_bundle();
  ServiceConfig config;
  config.breaker.failure_threshold = 2;
  config.breaker.cooldown_ticks = 30;
  config.breaker.probe_budget = 1;
  config.manager.recovery.enabled = true;
  config.manager.recovery.max_retries = 1;
  config.manager.recovery.retry_backoff = 100_us;
  config.manager.recovery.backoff_factor = 1.0;
  FleetService service(bundle, config);
  service.arm_faults(fault::parse_fault_spec(
      "seed 5\n"
      "horizon_ms 100\n"
      "store damage qam16 at_ms 0\n"
      "store repair qam16 at_ms 45\n"));
  const RequestLog log = parse_request_log(
      "fleet devices 1\n"
      "request at_us 1000  device 0 region D1 module qam16 class demand\n"
      "request at_us 20000 device 0 region D1 module qam16 class demand\n"
      "request at_us 40000 device 0 region D1 module qam16 class demand\n"
      "request at_us 41000 device 0 region D1 module qpsk  class maintenance\n"
      "request at_us 60000 device 0 region D1 module qam16 class demand\n"
      "request at_us 80000 device 0 region D1 module qam16 class demand\n");
  const ServiceReport report = service.run(log);

  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(report.degraded, 3);
  EXPECT_EQ(report.shed, 1);
  EXPECT_EQ(report.failed, 0);
  EXPECT_EQ(report.timed_out, 0);
  EXPECT_EQ(report.rejected_queue_full, 0);
  EXPECT_EQ(report.rejected_breaker_open, 0);
  EXPECT_EQ(report.store_damages, 1);
  EXPECT_EQ(report.store_repairs, 1);

  ASSERT_EQ(report.device_summaries.size(), 1u);
  const DeviceSummary& dev = report.device_summaries[0];
  EXPECT_EQ(dev.breaker, BreakerState::Closed);
  EXPECT_EQ(dev.breaker_opens, 1);
  ASSERT_EQ(dev.breaker_transitions.size(), 3u);
  EXPECT_NE(dev.breaker_transitions[0].find("closed->open"), std::string::npos);
  EXPECT_NE(dev.breaker_transitions[1].find("open->half_open"), std::string::npos);
  EXPECT_NE(dev.breaker_transitions[2].find("half_open->closed"), std::string::npos);
  // Two failed demands, one retry each, then the safe-module fallback.
  EXPECT_EQ(dev.stats.retries, 2);
  EXPECT_EQ(dev.stats.fallbacks, 2);
  // qam16 finally landed after the repair.
  EXPECT_EQ(dev.resident.at("D1"), "qam16");

  // The degraded-route serving at t=40ms never fed the breaker (else the
  // success would have reset the failure count before the open).
  ASSERT_EQ(report.records.size(), 6u);
  EXPECT_EQ(report.records[0].disposition, Disposition::Degraded);
  EXPECT_EQ(report.records[1].disposition, Disposition::Degraded);
  EXPECT_EQ(report.records[2].disposition, Disposition::Degraded);
  EXPECT_EQ(report.records[3].disposition, Disposition::Shed);
  EXPECT_EQ(report.records[4].disposition, Disposition::Completed);
  EXPECT_EQ(report.records[5].disposition, Disposition::Completed);
}

// Same scenario in strict mode (--no-degraded): the open-breaker demand
// is rejected instead of served degraded.
TEST(FleetServiceTest, StrictModeRejectsInsteadOfDegrading) {
  const auto bundle = test_bundle();
  ServiceConfig config;
  config.degraded_routes = false;
  config.breaker.failure_threshold = 2;
  config.breaker.cooldown_ticks = 30;
  config.manager.recovery.enabled = true;
  config.manager.recovery.max_retries = 1;
  config.manager.recovery.retry_backoff = 100_us;
  config.manager.recovery.backoff_factor = 1.0;
  FleetService service(bundle, config);
  service.arm_faults(fault::parse_fault_spec(
      "seed 5\n"
      "horizon_ms 100\n"
      "store damage qam16 at_ms 0\n"));
  const RequestLog log = parse_request_log(
      "fleet devices 1\n"
      "request at_us 1000  device 0 region D1 module qam16 class demand\n"
      "request at_us 20000 device 0 region D1 module qam16 class demand\n"
      "request at_us 40000 device 0 region D1 module qam16 class demand\n");
  const ServiceReport report = service.run(log);
  EXPECT_EQ(report.degraded, 2);
  EXPECT_EQ(report.rejected_breaker_open, 1);
  ASSERT_EQ(report.records.size(), 3u);
  EXPECT_EQ(report.records[2].disposition, Disposition::RejectedBreakerOpen);
  EXPECT_EQ(report.records[2].device, -1);
}

TEST(FleetServiceTest, AnyDeviceRoutesAroundOpenBreaker) {
  const auto bundle = test_bundle();
  ServiceConfig config;
  config.breaker.failure_threshold = 1;
  config.breaker.cooldown_ticks = 1000;  // stay open for the whole run
  config.manager.recovery.enabled = true;
  config.manager.recovery.max_retries = 0;
  FleetService service(bundle, config);
  service.arm_faults(fault::parse_fault_spec(
      "seed 5\n"
      "horizon_ms 100\n"
      "store damage qam16 at_ms 0\n"));
  // Device 0 trips its breaker on the damaged module; the later routed
  // request must land on device 1 even though device 0's queue is
  // shorter-or-equal (reroute flagged).
  const RequestLog log = parse_request_log(
      "fleet devices 2\n"
      "request at_us 1000  device 0   region D1 module qam16 class demand\n"
      "request at_us 30000 device any region D1 module qpsk  class demand\n");
  const ServiceReport report = service.run(log);
  ASSERT_EQ(report.records.size(), 2u);
  EXPECT_EQ(report.records[0].disposition, Disposition::Degraded);
  EXPECT_EQ(report.records[1].disposition, Disposition::Completed);
  EXPECT_EQ(report.records[1].device, 1);
  EXPECT_TRUE(report.records[1].rerouted);
  EXPECT_EQ(report.rerouted, 1);
  EXPECT_EQ(report.device_summaries[0].breaker, BreakerState::Open);
  EXPECT_EQ(report.device_summaries[1].breaker, BreakerState::Closed);
}

TEST(FleetServiceTest, ReportIsByteIdenticalAcrossJobs) {
  const auto bundle = test_bundle();
  TrafficOptions options;
  options.devices = 6;
  options.requests = 60;
  options.seed = 42;
  options.horizon = 80_ms;
  options.deadline = 25_ms;
  const RequestLog log =
      generate_request_log(options, {{"D1", {"qpsk", "qam16"}}});
  const fault::FaultSpec spec = fault::parse_fault_spec(
      "seed 9\n"
      "horizon_ms 120\n"
      "seu D1 rate 300\n"
      "store damage qam16 at_ms 10\n"
      "store repair qam16 at_ms 30\n");
  const auto run_with_jobs = [&](int jobs) {
    ServiceConfig config;
    config.jobs = jobs;
    config.manager.recovery.enabled = true;
    config.manager.recovery.jitter_frac = 0.25;
    FleetService service(bundle, config);
    service.arm_faults(spec);
    return service.run(log).to_string();
  };
  const std::string serial = run_with_jobs(1);
  EXPECT_EQ(run_with_jobs(4), serial);
  EXPECT_EQ(run_with_jobs(8), serial);
}

TEST(FleetServiceTest, ObservabilityMergesUnderDevicePrefixes) {
  const auto bundle = test_bundle();
  ServiceConfig config;
  config.jobs = 2;
  obs::Recorder recorder;
  FleetService service(bundle, config);
  service.set_sinks(obs::Sinks(recorder));
  const RequestLog log = parse_request_log(
      "fleet devices 2\n"
      "request at_us 0 device 0 region D1 module qam16 class demand\n"
      "request at_us 0 device 1 region D1 module qam16 class demand\n");
  const ServiceReport report = service.run(log);
  EXPECT_EQ(report.completed, 2);
  const std::string trace = recorder.tracer.to_chrome_json();
  EXPECT_NE(trace.find("dev0/"), std::string::npos);
  EXPECT_NE(trace.find("dev1/"), std::string::npos);
  const std::string exported = recorder.metrics.to_json();
  EXPECT_NE(exported.find("svc.completed"), std::string::npos);
  EXPECT_NE(exported.find("svc.cache.fetches"), std::string::npos);
}

TEST(FleetServiceTest, RunsOnceAndValidatesSpecNames) {
  const auto bundle = test_bundle();
  FleetService service(bundle, ServiceConfig{});
  EXPECT_THROW(service.arm_faults(fault::parse_fault_spec("seu D9 rate 10\n")), pdr::Error);
  EXPECT_THROW(service.arm_faults(fault::parse_fault_spec("store damage bogus at_ms 1\n")),
               pdr::Error);
  const RequestLog log = parse_request_log(
      "fleet devices 1\n"
      "request at_us 0 device 0 region D1 module qpsk class demand\n");
  (void)service.run(log);
  EXPECT_THROW((void)service.run(log), pdr::Error);
}

// The PDR120/PDR121 checks run before the first tick: a log naming an
// unknown region or module throws, naming the request, instead of
// reaching the drain.
TEST(FleetServiceTest, RunRejectsUnknownRegionsAndModules) {
  const auto bundle = test_bundle();
  const auto run_error = [&](const std::string& text) -> std::string {
    ServiceConfig config;
    config.jobs = 4;
    FleetService service(bundle, config);
    try {
      (void)service.run(parse_request_log(text));
    } catch (const pdr::Error& e) {
      return e.what();
    }
    return "";
  };
  const std::string region = run_error(
      "fleet devices 2\n"
      "request at_us 0 device 0 region D1 module qpsk class demand\n"
      "request at_us 5 device any region D9 module qpsk class demand\n");
  EXPECT_NE(region.find("request 2"), std::string::npos) << region;
  EXPECT_NE(region.find("'D9'"), std::string::npos) << region;
  const std::string module = run_error(
      "fleet devices 2\n"
      "request at_us 0 device 1 region D1 module bogus class demand\n");
  EXPECT_NE(module.find("request 1"), std::string::npos) << module;
  EXPECT_NE(module.find("'bogus'"), std::string::npos) << module;
}

// --- PDR12x lint family ----------------------------------------------------------

class ServiceRulesTest : public ::testing::Test {
 protected:
  ServiceRulesTest()
      : bundle_(test_bundle()),
        store_(16.7e6, 10_us),
        manager_(bundle_, rtr::ManagerConfig{}, store_, policy_) {}

  lint::Report check(const std::string& text) {
    return check_request_log_text(text, bundle_, manager_);
  }

  synth::DesignBundle bundle_;
  rtr::BitstreamStore store_;
  rtr::NonePrefetch policy_;
  rtr::ReconfigManager manager_;
};

TEST_F(ServiceRulesTest, CleanLogPasses) {
  const auto report = check(
      "fleet devices 2\n"
      "request at_us 0 device 1 region D1 module qpsk class demand priority 2 deadline_us 50000\n"
      "request at_us 5 device any region D1 module qam16 class maintenance\n");
  EXPECT_TRUE(report.empty()) << report.to_text();
}

TEST_F(ServiceRulesTest, FlagsUnknownRegion) {
  const auto report = check(
      "fleet devices 1\n"
      "request at_us 0 region D9 module qpsk\n");
  EXPECT_TRUE(report.has(lint::Rule::UnknownServiceRegion)) << report.to_text();
  EXPECT_EQ(report.errors(), 1u);
}

TEST_F(ServiceRulesTest, FlagsUnknownModule) {
  const auto report = check(
      "fleet devices 1\n"
      "request at_us 0 region D1 module qam64\n");
  EXPECT_TRUE(report.has(lint::Rule::UnknownServiceModule)) << report.to_text();
  EXPECT_EQ(report.errors(), 1u);
}

TEST_F(ServiceRulesTest, WarnsOnImpossibleDeadline) {
  // Below even the staged (best-case) load latency.
  const auto report = check(
      "fleet devices 1\n"
      "request at_us 0 region D1 module qam16 deadline_us 1\n");
  EXPECT_TRUE(report.has(lint::Rule::ServiceDeadlineTooTight)) << report.to_text();
  EXPECT_EQ(report.errors(), 0u);
  EXPECT_EQ(report.warnings(), 1u);
}

TEST_F(ServiceRulesTest, WarnsOnPriorityInversion) {
  const auto report = check(
      "fleet devices 1\n"
      "request at_us 0  region D1 module qpsk  class demand priority 1\n"
      "request at_us 10 region D1 module qam16 class maintenance priority 5\n");
  EXPECT_TRUE(report.has(lint::Rule::ServicePriorityInversion)) << report.to_text();
  EXPECT_EQ(report.warnings(), 1u);
}

TEST_F(ServiceRulesTest, FlagsDeviceOutOfRange) {
  const auto report = check(
      "fleet devices 2\n"
      "request at_us 0 device 5 region D1 module qpsk\n");
  EXPECT_TRUE(report.has(lint::Rule::ServiceDeviceOutOfRange)) << report.to_text();
}

TEST_F(ServiceRulesTest, ParseFailureBecomesPdr000) {
  const auto report = check("fleet devices 1\nfrobnicate\n");
  EXPECT_TRUE(report.has(lint::Rule::ParseError));
  EXPECT_EQ(report.errors(), 1u);
}

}  // namespace
}  // namespace pdr::svc
