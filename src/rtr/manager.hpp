// The runtime reconfiguration manager (paper §5, Figure 2).
//
// "A configuration manager is in charge of the configuration bitstream
// which must be loaded on the reconfigurable part by sending configuration
// requests" to the protocol configuration builder. This class ties
// together the bitstream store (external memory), the protocol builder,
// the configuration port, an optional on-chip cache and the prefetch
// policy, and tracks which module is physically resident in each region.
//
// Loading pipeline and the prefetch split:
//
//   external memory --fetch--> protocol builder --stream--> ICAP/SelectMAP
//
// The slow stages are the memory fetch and (for a CPU-hosted builder) the
// software framing; the port transfer itself is fast. Prefetching
// exploits exactly that:
//
//  - announce(): a *hint* that `module` will be demanded soon. The
//    manager pre-stages the built stream into an on-chip staging buffer
//    (fetch + build run off the critical path). The region is NOT
//    touched — it may still be computing.
//  - request(): a *demand*. The region is rewritten through the port:
//    from the staging buffer if the hint was right (port-transfer latency
//    only), or through the full fetch+build+load pipeline on a miss.
//
// All timing is explicit simulated time passed by the caller, so the
// manager composes with both the static schedule and the event simulator.
// Placement of the manager (M) and builder (P) — paper Figure 2 —
// determines latency contributions: a CPU-hosted manager adds the
// interrupt round trip (case b), a CPU-hosted builder throttles staging
// to software framing throughput. Every load also pays a fixed 500 ns of
// request bookkeeping; the port runs at its kind's default timing and an
// FPGA-hosted builder frames at 1 GB/s, above every port's rate.
//
// Self-healing (RecoveryConfig::enabled): a failed load — CRC reject,
// port abort or readback mismatch — is retried up to max_retries times,
// each after a backoff that starts at retry_backoff and grows by
// backoff_factor. When the budget runs out the region is blanked and
// brought up on its safe module (set_safe_module). With recovery off, a
// failed load throws.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "aaa/constraints.hpp"
#include "fabric/config_memory.hpp"
#include "fabric/config_port.hpp"
#include "obs/sinks.hpp"
#include "rtr/bitstream_store.hpp"
#include "rtr/cache.hpp"
#include "rtr/prefetch.hpp"
#include "rtr/protocol_builder.hpp"
#include "synth/flow.hpp"
#include "util/units.hpp"

namespace pdr::rtr {

/// Self-healing policy (off by default: a failed load then throws).
struct RecoveryConfig {
  bool enabled = false;       ///< catch failed loads and repair instead of throwing
  int max_retries = 3;        ///< failed attempts retried before falling back
  TimeNs retry_backoff = 200'000;  ///< wait before the first retry (200 us)
  double backoff_factor = 2.0;     ///< backoff multiplier per further retry
};

struct ManagerConfig {
  aaa::Placement manager = aaa::Placement::Fpga;  ///< 'M' placement
  aaa::Placement builder = aaa::Placement::Fpga;  ///< 'P' placement
  fabric::PortKind port_kind = fabric::PortKind::Icap;
  TimeNs interrupt_latency = 5000;   ///< FPGA->CPU request signalling (case b)
  double cpu_builder_bytes_per_s = 40e6;  ///< software framing (builder on the CPU)
  Bytes cache_capacity = 0;          ///< on-chip bitstream cache (0 = off)
  RecoveryConfig recovery;           ///< retry / fallback policy
};

/// Case-study configuration (paper §6): self reconfiguration through
/// ICAP, manager and builder in the FPGA's fixed part, partial bitstreams
/// in external memory whose streaming rate bottlenecks a cold load at the
/// paper's observed ≈ 4 ms for the 8 % region.
ManagerConfig sundance_manager_config();

/// How a demand was satisfied.
enum class RequestKind : std::uint8_t {
  AlreadyLoaded,    ///< module resident; no reconfiguration
  PrefetchHit,      ///< staged ahead of time; only the port transfer paid
  PrefetchInFlight, ///< staging still running; partial fetch latency paid
  CacheHit,         ///< unstaged, but the on-chip cache held the stream
  Miss,             ///< full fetch+build+load latency exposed
};

const char* request_kind_name(RequestKind kind);

/// Per-region health as the self-healing manager sees it.
///  - Healthy: last load verified, no corruption detected since.
///  - Degraded: corruption detected (or a load failed) and repair is
///    still pending — retries in flight or a scrub not yet run.
///  - Failed: retry and fallback budgets exhausted; the region holds no
///    usable module until an explicit reload succeeds.
enum class RegionHealth : std::uint8_t { Healthy, Degraded, Failed };

const char* region_health_name(RegionHealth health);

struct RequestOutcome {
  RequestKind kind = RequestKind::Miss;
  TimeNs ready_at = 0;  ///< when the module is usable
  TimeNs stall = 0;     ///< ready_at - request time
};

struct ManagerStats {
  int requests = 0;
  int already_loaded = 0;
  int prefetch_hits = 0;
  int prefetch_inflight = 0;
  int cache_hits = 0;  ///< demands served from the on-chip bitstream cache
  int misses = 0;
  int prefetches_issued = 0;
  int prefetches_wasted = 0;  ///< staged streams replaced before any demand
  int scrubs = 0;
  int blanks = 0;
  // Self-healing accounting (all zero unless faults are injected).
  int load_failures = 0;      ///< failed load attempts, any cause
  int crc_rejects = 0;        ///< streams rejected by CRC before the port transfer
  int port_aborts = 0;        ///< transfers the port cut mid-stream
  int readback_failures = 0;  ///< post-load readback found foreign frames
  int retries = 0;            ///< failed attempts retried with backoff
  int fallbacks = 0;          ///< retry budget exhausted: blank + safe module
  int scrub_repairs = 0;      ///< corrupted frames repaired by scrub()
  int health_transitions = 0; ///< region health state changes
  std::map<std::string, RegionHealth> region_health;
  /// Per-region directed transition history ("healthy->degraded" -> n):
  /// service-level triage can read how often a region bounced between
  /// states straight off the stats block instead of parsing traces.
  std::map<std::string, std::map<std::string, int>> health_transition_counts;
  TimeNs total_stall = 0;
  TimeNs total_load_time = 0;
  Bytes bytes_loaded = 0;

  /// Human-readable "name  value" table of every counter plus the final
  /// per-region health (the `pdrflow simulate` stats block).
  std::string to_string() const;
};

class ReconfigManager {
 public:
  /// `bundle` supplies device, floorplan and variant bitstreams (which
  /// are registered into `store`); both must outlive the manager.
  /// `policy` decides speculative staging.
  ReconfigManager(const synth::DesignBundle& bundle, ManagerConfig config, BitstreamStore& store,
                  PrefetchPolicy& policy);

  /// Demands `module` in `region` at time `now`; returns when usable.
  /// Physically rewrites the region's configuration frames.
  RequestOutcome request(const std::string& region, const std::string& module, TimeNs now);

  /// Hints that `module` will be demanded in `region` soon: stages its
  /// built stream on chip (no effect with NonePrefetch, a resident module
  /// or an identical staged/staging entry). Returns the staging's
  /// completion time if one was started or is running.
  std::optional<TimeNs> announce(const std::string& region, const std::string& module, TimeNs now);

  /// Fleet-cache tier hint (pdr::svc): `module`'s stream is already
  /// resident in a shared off-device cache, so the external-memory fetch
  /// is paid elsewhere (once, for the whole fleet). Stages the module as
  /// if a prefetch had completed at `now` without occupying the staging
  /// engine or the prefetch accounting; the next demand pays the staged
  /// (port-transfer) latency only. No-op when the module is resident.
  void preload_staged(const std::string& region, const std::string& module, TimeNs now);

  /// Asks the policy for a predicted next module and announces it.
  void auto_prefetch(const std::string& region, TimeNs now);

  /// Eagerly registers every region's blank stream with the external
  /// store. The recovery fallback path registers them lazily; a fleet
  /// service sharing one store across device threads calls this serially
  /// at startup so no worker thread ever writes the store mid-drain.
  void prepare_blank_streams();

  /// Declares `module` resident at t = 0 without a load: the initial
  /// full-device bitstream already configured the region with it (the
  /// constraints file's `load startup` policy). Physically applies the
  /// module's frames.
  void set_resident(const std::string& region, const std::string& module);

  /// Eager unload (constraints `unload eager`): loads the region's blank
  /// bitstream, clearing its logic. Occupies the port like any load.
  /// Returns completion time.
  TimeNs blank(const std::string& region, TimeNs now);

  /// Readback verification: compares each frame the resident module's
  /// stream writes against that frame's view in its
  /// ModuleArtifact::stream — immutable, shared by every device, and
  /// independent of any store damage; returns the number of corrupted
  /// frames (0 = clean). A frame that points at that very view is clean
  /// without a memcmp. Throws if nothing is resident.
  int verify_resident(const std::string& region) const;

  /// Scrubbing: rewrites the resident module's frames (full fetch+build+
  /// load pipeline, port-occupying), repairing any SEU corruption.
  /// Returns completion time.
  TimeNs scrub(const std::string& region, TimeNs now);

  /// Readback health check: verifies the resident payload and updates the
  /// region's health (Degraded when corruption is found, back to Healthy
  /// when a previously degraded region reads back clean). Returns the
  /// corrupted-frame count; a region with nothing resident reports 0 and
  /// keeps its current health. Does not occupy the port.
  int check_health(const std::string& region, TimeNs now);

  /// Current health of a region.
  RegionHealth health(const std::string& region) const;

  /// Designates the fallback personality loaded (after a blank) once the
  /// retry budget for a demanded module is exhausted.
  void set_safe_module(const std::string& region, const std::string& module);

  /// Certified-replay debug assert mode (pdr::verify integration): arms
  /// the manager with the exact per-region load sequence a statically
  /// certified schedule prescribes (verify::Certificate::expected_loads()).
  /// Every demand that physically rewrites a region — request() on a
  /// non-resident module, set_resident() — must then consume the next
  /// entry of that region's sequence; a diverging module or a demand past
  /// the end of the sequence throws pdr::Error naming both. Maintenance
  /// loads (blank, scrub, recovery fallback) are exempt: they repair state
  /// rather than advance the schedule. Resident re-demands consume
  /// nothing, matching the verifier's residency analysis.
  void enable_certified_replay(std::map<std::string, std::vector<std::string>> loads);

  /// Fault hook consulted on every external-memory fetch with the store's
  /// own bytes of `module`. To damage this transfer (transient bus
  /// corruption) it fills `corrupted` with the damaged copy and returns
  /// true; the load then parses that copy into a handle of its own (a
  /// rejected parse is a CRC reject). Returning false leaves `corrupted`
  /// untouched and the load uses the store's handle, with no copy and no
  /// parse. The hook must not keep
  /// `stored`. Permanent store damage goes through BitstreamStore::corrupt.
  using FetchFaultHook = std::function<bool(const std::string& module,
                                            std::span<const std::uint8_t> stored,
                                            std::vector<std::uint8_t>& corrupted)>;
  void set_fetch_fault_hook(FetchFaultHook hook) { fetch_fault_hook_ = std::move(hook); }

  /// Module resident in a region ("" if never configured).
  const std::string& loaded(const std::string& region) const;

  /// End-to-end latency of one cold (unstaged) load of `module`: staging
  /// and port transfer are pipelined, so the slower one dominates.
  TimeNs cold_load_latency(const std::string& module) const;

  /// Latency of a demand whose stream is already staged on chip (port
  /// transfer + overheads only).
  TimeNs staged_load_latency(const std::string& module) const;

  /// Time for staging a module (fetch + build, off the critical path).
  TimeNs staging_time(const std::string& module) const;

  /// Records through `sinks`: spans for every port load and staging
  /// (tracks "cfg_port" / "staging"), counters and stall/latency
  /// histograms (under "rtr."). The handle propagates to the cache,
  /// builder and prefetch policy.
  void set_sinks(obs::Sinks sinks);

  const ManagerStats& stats() const { return stats_; }
  const fabric::ConfigMemory& memory() const { return memory_; }
  const fabric::ConfigPort& port() const { return port_; }
  /// Mutable fabric access for fault injection (SEU flips, port hooks).
  fabric::ConfigMemory& memory() { return memory_; }
  fabric::ConfigPort& port() { return port_; }
  const BitstreamCache& cache() const { return cache_; }
  TimeNs port_free_at() const { return port_free_; }

 private:
  struct Staged {
    std::string module;
    TimeNs ready = 0;  ///< when fetch+build completes
  };

  /// Why one load attempt failed.
  enum class LoadFailure : std::uint8_t { None, CrcReject, PortAbort, ReadbackMismatch };

  /// Outcome of a (possibly retried) physical load.
  struct LoadResult {
    std::string resident;   ///< module actually in the region ("" on failure)
    TimeNs extra = 0;       ///< retry/backoff/fallback time beyond the first attempt
    bool fell_back = false;
    bool failed = false;
  };

  /// The one physical load: fetch (the fault hook may swap in a corrupted
  /// copy), the CRC gate (the store's handle passed it when it was made; a
  /// damaged or corrupted image is parsed here), build, port transfer,
  /// readback verification. Each stage reports its failure as a value; it
  /// is thrown as a pdr::Error with the stage's message when
  /// `throw_on_failure`, otherwise counted (load_failures plus its cause)
  /// and returned as a classification.
  LoadFailure attempt_load(const std::string& region, const std::string& module,
                           bool throw_on_failure);

  /// Full self-healing load: attempt, bounded retry with backoff, then
  /// blank + safe-module fallback. With recovery disabled, a single
  /// throwing attempt_load.
  LoadResult perform_load(const std::string& region, const std::string& module,
                          const char* category, TimeNs now, bool allow_fallback = true);

  /// One bounded fallback round: up to max_retries + 1 attempts at
  /// `module`, each adding a cold load to `extra`. True once one succeeds.
  bool fallback_load(const std::string& region, const std::string& module, TimeNs& extra);

  /// Registers (once) and names the region's blank stream (the bundle's).
  std::string ensure_blank_stream(const std::string& region);

  /// Records a health transition (stats, gauge and trace instant).
  void set_health(const std::string& region, RegionHealth health, TimeNs now,
                  const std::string& why);

  /// Records one port occupancy [end - latency, end] as a tracer span and
  /// a load-latency histogram sample. `category` is "load" for demand
  /// loads (so trace durations reconcile with stats().total_load_time),
  /// "blank"/"scrub" for maintenance loads.
  void note_port_load(const std::string& region, const std::string& module, const char* category,
                      TimeNs latency, TimeNs end);

  const synth::DesignBundle& bundle_;
  ManagerConfig config_;
  BitstreamStore& store_;
  PrefetchPolicy& policy_;
  ProtocolBuilder builder_;
  fabric::ConfigMemory memory_;
  fabric::ConfigPort port_;
  BitstreamCache cache_;
  /// Consumes the next certified load for `region` or throws (no-op when
  /// certified replay is off).
  void consume_certified_load(const std::string& region, const std::string& module,
                              const char* via);

  std::map<std::string, std::string> loaded_;
  std::map<std::string, Staged> staged_;  ///< one staging buffer per region
  /// Certified-replay state: expected per-region load sequences and a
  /// cursor of how many each region has consumed. Unarmed when empty opt.
  std::optional<std::map<std::string, std::vector<std::string>>> certified_loads_;
  std::map<std::string, std::size_t> certified_next_;
  TimeNs port_free_ = 0;
  TimeNs staging_free_ = 0;  ///< the staging engine handles one fetch at a time
  ManagerStats stats_;
  std::map<std::string, std::string> safe_modules_;  ///< region -> fallback personality
  FetchFaultHook fetch_fault_hook_;
  obs::Sinks sinks_;
};

}  // namespace pdr::rtr
