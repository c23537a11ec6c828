// One observability handle for every instrumented layer.
//
// obs::Recorder owns what one run records: a tracer and a metrics
// registry. obs::Sinks is a copyable handle to one recorder; each
// instrumented class holds one and records through it without checking
// anything first. A default-constructed handle is detached: its calls
// return before they join a name, build a string or allocate. Names come
// in up to three pieces (literals, std::string_view, std::string), joined
// only when recorded; an event whose label or arguments must be computed
// goes through trace(fn), which calls `fn` only when attached.
#pragma once

#include <string>
#include <string_view>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/units.hpp"

namespace pdr::obs {

/// The owning recorder: one tracer plus one metrics registry.
struct Recorder {
  Tracer tracer;
  MetricsRegistry metrics;

  /// Appends `other`'s events with every track prefixed by
  /// `track_prefix` and merges its metrics. Merging the same recorders in
  /// the same order always yields the same bytes: how ScenarioRunner and
  /// FleetService combine per-worker recorders at any thread count.
  void merge(const Recorder& other, const std::string& track_prefix = "") {
    tracer.append(other.tracer, track_prefix);
    metrics.merge(other.metrics);
  }
};

/// A metric or event name in up to three pieces.
class Name {
 public:
  Name(const char* name) : a_(name) {}
  Name(std::string_view name) : a_(name) {}
  Name(const std::string& name) : a_(name) {}
  Name(std::string_view a, std::string_view b, std::string_view c = {}) : a_(a), b_(b), c_(c) {}

  std::string str() const { return std::string(a_).append(b_).append(c_); }

 private:
  std::string_view a_, b_, c_;
};

/// Copyable handle to one Recorder; default-constructed, it records nothing.
class Sinks {
 public:
  Sinks() = default;
  explicit Sinks(Recorder& recorder) : recorder_(&recorder) {}

  bool attached() const { return recorder_ != nullptr; }

  void count(Name name, double delta = 1.0) const {
    if (recorder_ != nullptr) recorder_->metrics.counter(name.str()).add(delta);
  }
  void gauge(Name name, double value) const {
    if (recorder_ != nullptr) recorder_->metrics.gauge(name.str()).set(value);
  }
  /// Histogram with latency_buckets_ns() edges; `help` is kept on first use.
  void observe(Name name, double x, const char* help = "") const {
    if (recorder_ != nullptr)
      recorder_->metrics.histogram(name.str(), latency_buckets_ns(), help).observe(x);
  }
  void span(std::string_view track, Name name, std::string_view category, TimeNs start,
            TimeNs end) const {
    if (recorder_ != nullptr)
      recorder_->tracer.span(std::string(track), name.str(), std::string(category), start, end);
  }
  void instant(std::string_view track, Name name, std::string_view category, TimeNs at) const {
    if (recorder_ != nullptr)
      recorder_->tracer.instant(std::string(track), name.str(), std::string(category), at);
  }
  /// Calls `fn(Tracer&)` only when attached.
  template <typename Fn>
  void trace(Fn&& fn) const {
    if (recorder_ != nullptr) std::forward<Fn>(fn)(recorder_->tracer);
  }
  /// Recorder::merge into the attached recorder.
  void merge(const Recorder& other, const std::string& track_prefix = "") const {
    if (recorder_ != nullptr) recorder_->merge(other, track_prefix);
  }

 private:
  Recorder* recorder_ = nullptr;
};

}  // namespace pdr::obs
