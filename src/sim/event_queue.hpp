// Discrete-event core: a time-ordered event queue with stable FIFO
// ordering of simultaneous events.
//
// ## Tie-breaking invariant (load-bearing, do not weaken)
//
// Events scheduled for the same timestamp pop in *insertion order*: every
// schedule() call takes a monotonically increasing sequence number, and
// the queue orders by (timestamp, sequence). This also covers events an
// executing action schedules at the current timestamp — they run after
// everything already queued for that instant, in the order they were
// scheduled.
//
// This is not a convenience: it is the foundation of the repo-wide
// determinism guarantee. Every seeded simulation (fault campaigns, the
// MC-CDMA transmitter, scrub scheduling) promises bit-identical output
// for the same seed, and flow::ScenarioRunner promises that a parallel
// sweep is byte-identical to a serial one — both reduce to "a simulation
// is a pure function of its inputs", which an unstable same-timestamp
// order would silently break. The invariant is pinned by the
// EventQueue.SameTimestamp* tests in tests/sim_test.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "obs/sinks.hpp"
#include "util/units.hpp"

namespace pdr::sim {

class EventQueue {
 public:
  using Action = std::function<void(TimeNs now)>;

  /// Schedules `action` at absolute time `at` (>= now()).
  void schedule(TimeNs at, Action action);

  /// Schedules a named `action` at `at`; the label shows up as an instant
  /// event on the "events" trace track.
  void schedule(TimeNs at, std::string label, Action action);

  /// Schedules `action` `delay` after now().
  void schedule_in(TimeNs delay, Action action) { schedule(now_ + delay, std::move(action)); }

  /// Schedules a named `action` `delay` after now().
  void schedule_in(TimeNs delay, std::string label, Action action) {
    schedule(now_ + delay, std::move(label), std::move(action));
  }

  /// Records through `sinks`: every executed event emits an instant
  /// trace event (simulated time) and bumps "sim.events_executed".
  void set_sinks(obs::Sinks sinks) { sinks_ = sinks; }

  /// Runs events until the queue drains or `until` is passed; returns the
  /// number of events executed.
  std::size_t run(TimeNs until = INT64_MAX);

  TimeNs now() const { return now_; }
  bool empty() const { return queue_.empty(); }
  std::size_t pending() const { return queue_.size(); }

 private:
  struct Event {
    TimeNs at;
    std::uint64_t seq;
    std::string label;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  TimeNs now_ = 0;
  std::uint64_t seq_ = 0;
  obs::Sinks sinks_;
};

}  // namespace pdr::sim
