#include "rtr/manager.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace pdr::rtr {

const char* request_kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::AlreadyLoaded: return "already_loaded";
    case RequestKind::PrefetchHit: return "prefetch_hit";
    case RequestKind::PrefetchInFlight: return "prefetch_inflight";
    case RequestKind::CacheHit: return "cache_hit";
    case RequestKind::Miss: return "miss";
  }
  return "?";
}

const char* region_health_name(RegionHealth health) {
  switch (health) {
    case RegionHealth::Healthy: return "healthy";
    case RegionHealth::Degraded: return "degraded";
    case RegionHealth::Failed: return "failed";
  }
  return "?";
}

std::string ManagerStats::to_string() const {
  std::string out;
  const auto row = [&out](const char* name, long long value) {
    out += strprintf("  %-20s %lld\n", name, value);
  };
  row("requests", requests);
  row("already_loaded", already_loaded);
  row("prefetch_hits", prefetch_hits);
  row("prefetch_inflight", prefetch_inflight);
  row("cache_hits", cache_hits);
  row("misses", misses);
  row("prefetches_issued", prefetches_issued);
  row("prefetches_wasted", prefetches_wasted);
  row("scrubs", scrubs);
  row("blanks", blanks);
  row("load_failures", load_failures);
  row("crc_rejects", crc_rejects);
  row("port_aborts", port_aborts);
  row("readback_failures", readback_failures);
  row("retries", retries);
  row("fallbacks", fallbacks);
  row("scrub_repairs", scrub_repairs);
  row("health_transitions", health_transitions);
  out += strprintf("  %-20s %.3f ms\n", "total_stall", to_ms(total_stall));
  out += strprintf("  %-20s %.3f ms\n", "total_load_time", to_ms(total_load_time));
  row("bytes_loaded", static_cast<long long>(bytes_loaded));
  for (const auto& [region, health] : region_health)
    out += strprintf("  health %-13s %s\n", region.c_str(), region_health_name(health));
  for (const auto& [region, counts] : health_transition_counts)
    for (const auto& [edge, n] : counts)
      out += strprintf("  transition %-9s %s x%d\n", region.c_str(), edge.c_str(), n);
  return out;
}

namespace {

// Tracer track names: port occupancy vs the off-critical-path staging
// engine render as two lanes in the exported Chrome trace; health
// transitions get their own sparse lane.
constexpr const char* kPortTrack = "cfg_port";
constexpr const char* kStagingTrack = "staging";
constexpr const char* kHealthTrack = "health";

}  // namespace

ManagerConfig sundance_manager_config() {
  ManagerConfig cfg;
  cfg.manager = aaa::Placement::Fpga;
  cfg.builder = aaa::Placement::Fpga;
  cfg.port_kind = fabric::PortKind::Icap;
  cfg.manager_overhead = 500;
  return cfg;
}

ReconfigManager::ReconfigManager(const synth::DesignBundle& bundle, ManagerConfig config,
                                 BitstreamStore& store, PrefetchPolicy& policy)
    : bundle_(bundle),
      config_(config),
      store_(store),
      policy_(policy),
      builder_(config.builder, config.cpu_builder_bytes_per_s, config.fpga_builder_bytes_per_s),
      memory_(bundle.device),
      port_(config.port_kind,
            config.port_timing.value_or(fabric::ConfigPort::default_timing(config.port_kind)),
            memory_),
      cache_(config.cache_capacity),
      recovery_rng_(config.recovery.jitter_seed) {
  // Register every dynamic variant's bitstream with the external store.
  for (const auto& [region, variants] : bundle_.dynamic_variants) {
    loaded_.emplace(region, "");
    stats_.region_health.emplace(region, RegionHealth::Healthy);
    for (const auto& v : variants)
      if (!store_.contains(v.name)) store_.add(v.name, v.stream);
  }
}

void ReconfigManager::set_sinks(obs::Sinks sinks) {
  sinks_ = sinks;
  cache_.set_sinks(sinks);
  builder_.set_sinks(sinks);
  policy_.set_sinks(sinks);
}

void ReconfigManager::note_port_load(const std::string& region, const std::string& module,
                                     const char* category, TimeNs latency, TimeNs end) {
  sinks_.trace([&](obs::Tracer& t) {
    t.span(kPortTrack, "load " + module + " -> " + region, category, end - latency, end,
           {{"module", module}, {"region", region}});
  });
  sinks_.observe("rtr.manager.load_latency_ns", static_cast<double>(latency),
                 "end-to-end latency of port loads");
}

const std::string& ReconfigManager::loaded(const std::string& region) const {
  const auto it = loaded_.find(region);
  PDR_CHECK(it != loaded_.end(), "ReconfigManager::loaded", "unknown region '" + region + "'");
  return it->second;
}

TimeNs ReconfigManager::staging_time(const std::string& module) const {
  const Bytes bytes = store_.size_of(module);
  const TimeNs fetch = store_.fetch_time(module);
  const TimeNs build = transfer_time_ns(bytes, builder_.throughput_bytes_per_s());
  // Fetch and build stream through each other: slowest stage dominates.
  return std::max(fetch, build);
}

TimeNs ReconfigManager::staged_load_latency(const std::string& module) const {
  TimeNs latency = config_.manager_overhead + port_.transfer_time(store_.size_of(module));
  if (config_.manager == aaa::Placement::Cpu) latency += config_.interrupt_latency;
  return latency;
}

TimeNs ReconfigManager::cold_load_latency(const std::string& module) const {
  const Bytes bytes = store_.size_of(module);
  const TimeNs fetch = store_.fetch_time(module);
  const TimeNs build = transfer_time_ns(bytes, builder_.throughput_bytes_per_s());
  const TimeNs load = port_.transfer_time(bytes);
  // The three stages are pipelined; the slowest dominates.
  TimeNs latency = config_.manager_overhead + std::max({fetch, build, load});
  if (config_.manager == aaa::Placement::Cpu) latency += config_.interrupt_latency;
  return latency;
}

ReconfigManager::LoadFailure ReconfigManager::attempt_load(const std::string& region,
                                                           const std::string& module,
                                                           bool throw_on_failure) {
  // Fetch: the store's own bytes, or — when the fault hook damages this
  // transfer — the corrupted copy it hands back; the store is never touched.
  const std::span<const std::uint8_t> stored = store_.get(module);
  std::vector<std::uint8_t> corrupted;
  const bool intact = !fetch_fault_hook_ || !fetch_fault_hook_(module, stored, corrupted);
  // Only the store's own intact image has a handle. A damaged or corrupted
  // image is parsed before it ever reaches the port: a bad one is rejected
  // while the region still holds its previous (intact) configuration.
  auto stream = intact ? store_.validated(module) : nullptr;
  std::string error;
  if (stream == nullptr)
    stream = fabric::ValidatedStream::try_parse(bundle_.device, intact ? stored : corrupted, error);
  LoadFailure failure = LoadFailure::None;
  if (stream == nullptr) {
    failure = LoadFailure::CrcReject;
  } else {
    builder_.record(*stream);
    const fabric::LoadReport report = port_.load(*stream, module);
    if (report.aborted) {
      failure = LoadFailure::PortAbort;  // the port died mid-transfer
      if (throw_on_failure)
        error = strprintf("ConfigPort: load of '%s' aborted after %llu of %zu bytes (%d frames "
                          "committed)",
                          module.c_str(), static_cast<unsigned long long>(report.stream_bytes),
                          stream->bytes().size(), report.frames_written);
    } else if (config_.verify_loads &&
               !memory_.region_owned_by(bundle_.floorplan.region_frame_indices(region), module)) {
      failure = LoadFailure::ReadbackMismatch;
      if (throw_on_failure)
        error = "ReconfigManager: after loading '" + module + "', region '" + region +
                "' frames are not all owned by it";
    }
  }
  if (failure == LoadFailure::None) {
    stats_.bytes_loaded += stream->bytes().size();
    sinks_.count("rtr.manager.bytes_loaded", static_cast<double>(stream->bytes().size()));
    return failure;
  }
  if (throw_on_failure) throw Error(std::move(error));
  switch (failure) {
    case LoadFailure::CrcReject:
      ++stats_.crc_rejects;
      sinks_.count("rtr.manager.crc_rejects");
      break;
    case LoadFailure::PortAbort:
      ++stats_.port_aborts;
      sinks_.count("rtr.manager.port_aborts");
      break;
    default:
      ++stats_.readback_failures;
      sinks_.count("rtr.manager.readback_failures");
      break;
  }
  ++stats_.load_failures;
  sinks_.count("rtr.manager.load_failures");
  return failure;
}

bool ReconfigManager::fallback_load(const std::string& region, const std::string& module,
                                    TimeNs& extra) {
  for (int i = 0; i <= config_.recovery.max_retries; ++i) {
    extra += cold_load_latency(module);
    if (attempt_load(region, module, /*throw_on_failure=*/false) == LoadFailure::None) return true;
  }
  return false;
}

void ReconfigManager::set_health(const std::string& region, RegionHealth health, TimeNs now,
                                 const std::string& why) {
  auto& current = stats_.region_health.at(region);
  if (current == health) return;
  ++stats_.health_transition_counts[region][std::string(region_health_name(current)) + "->" +
                                            region_health_name(health)];
  current = health;
  ++stats_.health_transitions;
  sinks_.count("rtr.manager.health_transitions");
  sinks_.gauge({"rtr.manager.health.", region}, static_cast<double>(static_cast<int>(health)));
  sinks_.trace([&](obs::Tracer& t) {
    t.instant(kHealthTrack, region + " -> " + region_health_name(health), "health", now,
              {{"region", region}, {"why", why}});
  });
  PDR_DEBUG("rtr") << "health " << region << " -> " << region_health_name(health) << " (" << why
                   << ")";
}

RegionHealth ReconfigManager::health(const std::string& region) const {
  const auto it = stats_.region_health.find(region);
  PDR_CHECK(it != stats_.region_health.end(), "ReconfigManager::health",
            "unknown region '" + region + "'");
  return it->second;
}

void ReconfigManager::set_safe_module(const std::string& region, const std::string& module) {
  PDR_CHECK(loaded_.count(region) > 0, "ReconfigManager::set_safe_module",
            "unknown region '" + region + "'");
  config_.safe_modules[region] = module;
}

void ReconfigManager::enable_certified_replay(
    std::map<std::string, std::vector<std::string>> loads) {
  certified_loads_ = std::move(loads);
  certified_next_.clear();
}

void ReconfigManager::consume_certified_load(const std::string& region,
                                             const std::string& module, const char* via) {
  if (!certified_loads_.has_value()) return;
  const auto it = certified_loads_->find(region);
  const std::size_t have = it == certified_loads_->end() ? 0 : it->second.size();
  std::size_t& next = certified_next_[region];
  PDR_CHECK(next < have, "ReconfigManager::certified_replay",
            strprintf("%s of '%s' into region '%s' exceeds the certified schedule "
                      "(%zu load(s) certified, all consumed)",
                      via, module.c_str(), region.c_str(), have));
  const std::string& expected = it->second[next];
  PDR_CHECK(expected == module, "ReconfigManager::certified_replay",
            strprintf("%s of '%s' into region '%s' diverges from the certified schedule "
                      "(load %zu of %zu expects '%s')",
                      via, module.c_str(), region.c_str(), next + 1, have, expected.c_str()));
  ++next;
}

ReconfigManager::LoadResult ReconfigManager::perform_load(const std::string& region,
                                                          const std::string& module,
                                                          const char* category, TimeNs now,
                                                          bool allow_fallback) {
  LoadResult result;
  result.resident = module;
  if (!config_.recovery.enabled) {
    attempt_load(region, module, /*throw_on_failure=*/true);
    return result;
  }

  TimeNs backoff = config_.recovery.retry_backoff;
  TimeNs backoff_spent = 0;
  for (int attempt = 0;; ++attempt) {
    if (attempt_load(region, module, /*throw_on_failure=*/false) == LoadFailure::None) {
      // A clean verified load rewrote the whole region: whatever state it
      // was in (degraded readback, earlier failure), it is healthy now.
      set_health(region, RegionHealth::Healthy, now,
                 attempt > 0 ? "retry succeeded" : "load verified");
      return result;
    }
    set_health(region, RegionHealth::Degraded,
               now, std::string(category) + " of '" + module + "' failed");
    if (attempt >= config_.recovery.max_retries) break;
    // Scale the wait by the jitter stream so a fleet of managers retrying
    // the same broken module spreads out instead of retrying in lockstep.
    TimeNs wait = backoff;
    if (config_.recovery.jitter_frac > 0.0) {
      const double scale =
          recovery_rng_.uniform(1.0 - config_.recovery.jitter_frac,
                                1.0 + config_.recovery.jitter_frac);
      wait = std::max<TimeNs>(1, static_cast<TimeNs>(static_cast<double>(backoff) * scale));
    }
    // A cumulative ceiling bounds how long one request may monopolize the
    // port retrying: past it, go straight to the fallback path.
    if (config_.recovery.max_total_backoff > 0 &&
        backoff_spent + wait > config_.recovery.max_total_backoff)
      break;
    backoff_spent += wait;
    // Requeue the whole fetch+build+load pipeline after the backoff.
    ++stats_.retries;
    sinks_.count("rtr.manager.retries");
    result.extra += wait + cold_load_latency(module);
    backoff = static_cast<TimeNs>(static_cast<double>(backoff) * config_.recovery.backoff_factor);
  }

  if (!allow_fallback) {
    result.resident.clear();
    result.failed = true;
    set_health(region, RegionHealth::Failed, now, "retry budget exhausted");
    return result;
  }

  // Retry budget exhausted: clear the region, then bring up the
  // designated safe personality. Both are port loads themselves and get
  // one bounded round each.
  ++stats_.fallbacks;
  sinks_.count("rtr.manager.fallbacks");
  result.fell_back = true;
  const bool blanked = fallback_load(region, ensure_blank_stream(region), result.extra);
  if (blanked) {
    ++stats_.blanks;
    sinks_.count("rtr.manager.blanks");
  }
  const auto safe = config_.safe_modules.find(region);
  const bool safe_loaded = blanked && safe != config_.safe_modules.end() &&
                           safe->second != module &&
                           fallback_load(region, safe->second, result.extra);
  if (safe_loaded) {
    result.resident = safe->second;
    set_health(region, RegionHealth::Healthy, now, "fell back to safe module '" + safe->second + "'");
  } else {
    result.resident.clear();
    result.failed = true;
    set_health(region, RegionHealth::Failed, now,
               blanked ? "no loadable safe module" : "blank failed");
  }
  return result;
}

RequestOutcome ReconfigManager::request(const std::string& region, const std::string& module,
                                        TimeNs now) {
  PDR_CHECK(loaded_.count(region) > 0, "ReconfigManager::request", "unknown region '" + region + "'");
  ++stats_.requests;
  policy_.observe(region, module);

  RequestOutcome out;
  if (loaded_.at(region) == module) {
    out.kind = RequestKind::AlreadyLoaded;
    out.ready_at = now;
    ++stats_.already_loaded;
    out.stall = 0;
    sinks_.count("rtr.manager.requests");
    sinks_.count("rtr.manager.already_loaded");
    sinks_.trace([&](obs::Tracer& t) {
      t.instant(kPortTrack, "resident " + module, "resident", now, {{"region", region}});
    });
    return out;
  }

  consume_certified_load(region, module, "demand load");

  TimeNs latency_paid = 0;
  const auto staged = staged_.find(region);
  const bool have_staged = staged != staged_.end() && staged->second.module == module;
  if (have_staged) {
    // Two ways to finish: wait out the staging and pay only the port
    // transfer, or abandon it and stream the pipelined cold path. A real
    // manager takes whichever completes first (a barely-started staging
    // must not be slower than no prefetch at all).
    const TimeNs via_staged =
        std::max({now, staged->second.ready, port_free_}) + staged_load_latency(module);
    const TimeNs via_cold = std::max(now, port_free_) + cold_load_latency(module);
    if (via_staged <= via_cold) {
      out.kind =
          staged->second.ready <= now ? RequestKind::PrefetchHit : RequestKind::PrefetchInFlight;
      out.ready_at = via_staged;
      latency_paid = staged_load_latency(module);
      if (out.kind == RequestKind::PrefetchHit)
        ++stats_.prefetch_hits;
      else
        ++stats_.prefetch_inflight;
    } else {
      out.kind = RequestKind::Miss;
      out.ready_at = via_cold;
      latency_paid = cold_load_latency(module);
      ++stats_.misses;
      ++stats_.prefetches_wasted;  // the staging never paid off
      sinks_.count("rtr.manager.prefetches_wasted");
    }
    staged_.erase(staged);
  } else {
    if (cache_.capacity() > 0 && cache_.lookup(module)) {
      // The on-chip cache removes the external fetch, like staging does.
      // Not a plain miss: report it so cache effectiveness is visible.
      out.kind = RequestKind::CacheHit;
      latency_paid = staged_load_latency(module);
      ++stats_.cache_hits;
    } else {
      out.kind = RequestKind::Miss;
      latency_paid = cold_load_latency(module);
      ++stats_.misses;
    }
    out.ready_at = std::max(now, port_free_) + latency_paid;
  }
  const LoadResult lr = perform_load(region, module, "load", now);
  latency_paid += lr.extra;
  out.ready_at += lr.extra;
  stats_.total_load_time += latency_paid;
  port_free_ = out.ready_at;

  if (!lr.failed && !lr.fell_back && cache_.capacity() > 0)
    cache_.insert(module, store_.size_of(module));
  loaded_[region] = lr.resident;

  out.stall = std::max<TimeNs>(0, out.ready_at - now);
  stats_.total_stall += out.stall;
  sinks_.count("rtr.manager.requests");
  sinks_.count({"rtr.manager.", request_kind_name(out.kind)});
  sinks_.observe("rtr.manager.stall_ns", static_cast<double>(out.stall),
                 "demand stall exposed to the application");
  note_port_load(region, module, "load", latency_paid, out.ready_at);
  PDR_DEBUG("rtr") << request_kind_name(out.kind) << " " << module << " -> " << region
                   << " ready at " << to_us(out.ready_at) << " us";
  return out;
}

std::optional<TimeNs> ReconfigManager::announce(const std::string& region,
                                                const std::string& module, TimeNs now) {
  PDR_CHECK(loaded_.count(region) > 0, "ReconfigManager::announce",
            "unknown region '" + region + "'");
  if (dynamic_cast<NonePrefetch*>(&policy_) != nullptr) return std::nullopt;
  if (loaded_.at(region) == module) return std::nullopt;

  const auto staged = staged_.find(region);
  if (staged != staged_.end()) {
    if (staged->second.module == module) return staged->second.ready;
    // Replacing a never-demanded staged stream: the earlier prefetch was
    // wasted.
    ++stats_.prefetches_wasted;
    sinks_.count("rtr.manager.prefetches_wasted");
    sinks_.trace([&](obs::Tracer& t) {
      t.instant(kStagingTrack, "replace " + staged->second.module, "prefetch_wasted", now,
                {{"region", region}});
    });
  }

  const TimeNs start = std::max(now, staging_free_);
  TimeNs duration = staging_time(module);
  if (cache_.capacity() > 0 && cache_.lookup(module)) duration = 0;  // already on chip
  const TimeNs ready = start + duration;
  staging_free_ = ready;
  staged_[region] = Staged{module, ready};
  if (cache_.capacity() > 0) cache_.insert(module, store_.size_of(module));
  ++stats_.prefetches_issued;
  sinks_.count("rtr.manager.prefetches_issued");
  sinks_.trace([&](obs::Tracer& t) {
    t.span(kStagingTrack, "stage " + module + " for " + region, "staging", start, ready,
           {{"module", module}, {"region", region}});
  });
  PDR_DEBUG("rtr") << "staging " << module << " for " << region << ", ready at " << to_us(ready)
                   << " us";
  return ready;
}

void ReconfigManager::preload_staged(const std::string& region, const std::string& module,
                                     TimeNs now) {
  PDR_CHECK(loaded_.count(region) > 0, "ReconfigManager::preload_staged",
            "unknown region '" + region + "'");
  if (loaded_.at(region) == module) return;
  // The stream is already resident in a shared off-device tier: stage it
  // as an instantly-ready entry without touching the staging engine or the
  // prefetch counters, so the next demand pays the port transfer only.
  staged_[region] = Staged{module, now};
  sinks_.trace([&](obs::Tracer& t) {
    t.instant(kStagingTrack, "fleet-cache stage " + module, "staging", now,
              {{"module", module}, {"region", region}});
  });
}

void ReconfigManager::auto_prefetch(const std::string& region, TimeNs now) {
  const auto predicted = policy_.predict(region, loaded(region));
  if (predicted.has_value() && store_.contains(*predicted)) announce(region, *predicted, now);
}

void ReconfigManager::set_resident(const std::string& region, const std::string& module) {
  PDR_CHECK(loaded_.count(region) > 0, "ReconfigManager::set_resident",
            "unknown region '" + region + "'");
  consume_certified_load(region, module, "startup residency");
  attempt_load(region, module, /*throw_on_failure=*/true);
  loaded_[region] = module;
}

void ReconfigManager::prepare_blank_streams() {
  for (const auto& [region, module] : loaded_) ensure_blank_stream(region);
}

std::string ReconfigManager::ensure_blank_stream(const std::string& region) {
  const std::string blank_name = "__blank_" + region;
  if (!store_.contains(blank_name)) store_.add(blank_name, bundle_.blank_streams.at(region));
  return blank_name;
}

TimeNs ReconfigManager::blank(const std::string& region, TimeNs now) {
  PDR_CHECK(loaded_.count(region) > 0, "ReconfigManager::blank", "unknown region '" + region + "'");
  const std::string blank_name = ensure_blank_stream(region);
  TimeNs latency = cold_load_latency(blank_name);
  // An eager unload is a load like any other: the same build + port path,
  // the same readback verification (against the blank stream's ownership)
  // and the same byte accounting — and, under recovery, the same bounded
  // retry (though a blank has nothing to fall back to).
  const LoadResult lr = perform_load(region, blank_name, "blank", now, /*allow_fallback=*/false);
  latency += lr.extra;
  const TimeNs done = std::max(now, port_free_) + latency;
  port_free_ = done;
  loaded_[region] = "";
  staged_.erase(region);
  ++stats_.blanks;
  sinks_.count("rtr.manager.blanks");
  note_port_load(region, blank_name, "blank", latency, done);
  return done;
}

int ReconfigManager::verify_resident(const std::string& region) const {
  const std::string& module = loaded(region);
  PDR_CHECK(!module.empty(), "ReconfigManager::verify_resident",
            "region '" + region + "' has no resident module");
  int corrupted = 0;
  for (const auto& frame : bundle_.variant(region, module).stream->frames()) {
    // A frame that points at the golden view holds its bytes: handles are
    // immutable, so only a frame pointing elsewhere needs the compare.
    const auto data = memory_.read_frame(frame.index);
    if (data.data() != frame.data.data() &&
        std::memcmp(data.data(), frame.data.data(), data.size()) != 0)
      ++corrupted;
  }
  return corrupted;
}

TimeNs ReconfigManager::scrub(const std::string& region, TimeNs now) {
  const std::string module = loaded(region);
  PDR_CHECK(!module.empty(), "ReconfigManager::scrub",
            "region '" + region + "' has no resident module to scrub");
  const int corrupted_before = verify_resident(region);
  TimeNs latency = cold_load_latency(module);
  const LoadResult lr = perform_load(region, module, "scrub", now);
  latency += lr.extra;
  const TimeNs done = std::max(now, port_free_) + latency;
  port_free_ = done;
  loaded_[region] = lr.resident;
  ++stats_.scrubs;
  sinks_.count("rtr.manager.scrubs");
  if (!lr.failed && corrupted_before > 0) {
    stats_.scrub_repairs += corrupted_before;
    sinks_.count("rtr.manager.scrub_repairs", corrupted_before);
  }
  note_port_load(region, module, "scrub", latency, done);
  return done;
}

int ReconfigManager::check_health(const std::string& region, TimeNs now) {
  const auto it = loaded_.find(region);
  PDR_CHECK(it != loaded_.end(), "ReconfigManager::check_health",
            "unknown region '" + region + "'");
  if (it->second.empty()) return 0;
  const int corrupted = verify_resident(region);
  if (corrupted > 0) {
    set_health(region, RegionHealth::Degraded,
               now, std::to_string(corrupted) + " corrupted frame(s) on readback");
  } else if (health(region) == RegionHealth::Degraded) {
    set_health(region, RegionHealth::Healthy, now, "readback clean");
  }
  return corrupted;
}

}  // namespace pdr::rtr
