#include "sim/event_queue.hpp"

#include "util/error.hpp"

namespace pdr::sim {

void EventQueue::schedule(TimeNs at, Action action) {
  schedule(at, std::string(), std::move(action));
}

void EventQueue::schedule(TimeNs at, std::string label, Action action) {
  PDR_CHECK(at >= now_, "EventQueue::schedule", "cannot schedule into the past");
  queue_.push(Event{at, seq_++, std::move(label), std::move(action)});
}

std::size_t EventQueue::run(TimeNs until) {
  std::size_t executed = 0;
  while (!queue_.empty() && queue_.top().at <= until) {
    // Copy out before pop; the action may schedule further events.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.at;
    sinks_.instant("events", ev.label.empty() ? std::string_view("event") : ev.label, "sim_event",
                   now_);
    ev.action(now_);
    ++executed;
    sinks_.count("sim.events_executed");
  }
  return executed;
}

}  // namespace pdr::sim
