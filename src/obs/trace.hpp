// Span/event tracer: the process-wide timeline substrate.
//
// Every runtime layer (reconfiguration manager, event simulator, design
// flow, adequation) records named, tagged intervals here instead of
// keeping private ad-hoc logs. Timestamps are explicit — simulated
// nanoseconds from the manager and simulator, wall-clock nanoseconds from
// the flow — so one tracer composes both worlds; use separate tracks to
// keep them apart.
//
// The export format is Chrome trace-event JSON (the `chrome://tracing` /
// Perfetto "JSON Array Format"): open the file in https://ui.perfetto.dev
// or chrome://tracing and the MC-CDMA prefetch-hit timeline from the
// paper's case study becomes directly inspectable — staging spans on one
// track, port loads on another.
#pragma once

#include <string>
#include <vector>

#include "util/units.hpp"

namespace pdr::obs {

/// One "key=value" annotation attached to an event (rendered in the
/// viewer's argument pane).
struct TraceArg {
  std::string key;
  std::string value;
};

/// Chrome trace-event phases we emit. Complete spans carry a duration;
/// instants mark a point; counters plot a value over time.
enum class TracePhase : char { Complete = 'X', Instant = 'i', Counter = 'C' };

struct TraceEvent {
  TracePhase phase = TracePhase::Complete;
  std::string track;     ///< rendered as a named thread lane
  std::string name;
  std::string category;  ///< comma-free tag, filterable in the viewer
  TimeNs ts = 0;
  TimeNs dur = 0;        ///< Complete spans only
  double value = 0.0;    ///< Counter events only
  std::vector<TraceArg> args;
};

class Tracer {
 public:
  /// Records a [start, end] interval on `track`. Throws if end < start.
  void span(std::string track, std::string name, std::string category, TimeNs start, TimeNs end,
            std::vector<TraceArg> args = {});

  /// Records a point event.
  void instant(std::string track, std::string name, std::string category, TimeNs at,
               std::vector<TraceArg> args = {});

  /// Records a sampled value (rendered as a step plot).
  void counter(std::string track, std::string name, TimeNs at, double value);

  /// Appends every event of `other`, optionally namespacing its tracks
  /// under `track_prefix` ("scn0/" turns track "port" into "scn0/port").
  /// Appending the same tracers in the same order always yields the same
  /// event sequence — how the scenario runner merges per-scenario traces
  /// deterministically.
  void append(const Tracer& other, const std::string& track_prefix = "");

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void clear() { events_.clear(); }

  /// Sum of Complete-span durations in `category`.
  TimeNs total_duration(const std::string& category) const;

  /// Number of events (any phase) in `category`.
  std::size_t count(const std::string& category) const;

  /// Serializes to Chrome trace-event JSON: an object with a
  /// "traceEvents" array plus thread_name metadata naming each track.
  /// Timestamps are microseconds (fractional, keeping ns resolution).
  std::string to_chrome_json() const;

  /// Writes to_chrome_json() to `path`; throws pdr::Error on I/O failure.
  void write_chrome_json(const std::string& path) const;

 private:
  std::vector<TraceEvent> events_;
};

/// Escapes a string for embedding in a JSON string literal.
std::string json_escape(const std::string& s);

}  // namespace pdr::obs
