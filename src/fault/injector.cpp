#include "fault/injector.hpp"

#include <cmath>

#include "util/error.hpp"

namespace pdr::fault {

namespace {

/// FNV-1a, for deriving independent sub-seeds from fault-target names.
std::uint64_t fnv1a(const char* kind, const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](char c) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ull;
  };
  for (const char* p = kind; *p != '\0'; ++p) mix(*p);
  mix(':');
  for (const char c : name) mix(c);
  return h;
}

}  // namespace

FaultInjector::FaultInjector(FaultSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed != 0 ? seed : spec_.seed), port_rng_(0) {
  port_rng_ = stream("port", "abort");
}

Rng FaultInjector::stream(const char* kind, const std::string& name) const {
  return Rng(seed_ ^ fnv1a(kind, name));
}

std::vector<SeuEvent> FaultInjector::seu_timeline(const std::string& region,
                                                  std::size_t frame_count,
                                                  int frame_bytes) const {
  std::vector<SeuEvent> timeline;
  const SeuProcess* process = spec_.find_seu(region);
  if (process == nullptr || frame_count == 0 || frame_bytes <= 0) return timeline;

  Rng rng = stream("seu", region);
  double t_s = 0;
  const double horizon_s = static_cast<double>(spec_.horizon) / 1e9;
  for (;;) {
    // Poisson process: exponential inter-arrival times.
    t_s += -std::log(1.0 - rng.uniform01()) / process->rate_hz;
    if (t_s >= horizon_s) break;
    SeuEvent ev;
    ev.at = static_cast<TimeNs>(t_s * 1e9);
    ev.frame_offset = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(frame_count) - 1));
    ev.byte_index = static_cast<int>(rng.uniform_int(0, frame_bytes - 1));
    ev.bit = static_cast<int>(rng.uniform_int(0, 7));
    timeline.push_back(ev);
  }
  return timeline;
}

double FaultInjector::next_port_abort() {
  if (spec_.port_abort_prob <= 0) return -1.0;
  if (!port_rng_.chance(spec_.port_abort_prob)) return -1.0;
  ++port_aborts_armed_;
  // Die somewhere strictly inside the stream; the edges are handled by
  // the port's own word-boundary clamping.
  return port_rng_.uniform(0.05, 0.95);
}

bool FaultInjector::maybe_corrupt_fetch(const std::string& module,
                                        std::span<const std::uint8_t> stored,
                                        std::vector<std::uint8_t>& corrupted) {
  const FetchFault* fault = spec_.find_fetch_fault(module);
  if (fault == nullptr || stored.empty()) return false;
  auto it = fetch_rngs_.find(module);
  if (it == fetch_rngs_.end()) it = fetch_rngs_.emplace(module, stream("fetch", module)).first;
  Rng& rng = it->second;
  if (!rng.chance(fault->prob)) return false;
  const auto index =
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(stored.size()) - 1));
  const auto mask = static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
  corrupted.assign(stored.begin(), stored.end());
  corrupted[index] ^= mask;
  ++fetch_corruptions_;
  return true;
}

std::size_t FaultInjector::damage_byte(const std::string& module, std::size_t stream_bytes) const {
  PDR_CHECK(stream_bytes > 0, "FaultInjector::damage_byte", "empty stream for '" + module + "'");
  Rng rng = stream("store", module);
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(stream_bytes) - 1));
}

}  // namespace pdr::fault
