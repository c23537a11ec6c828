// Metrics registry: counters, gauges and histograms by name.
//
// The aggregate structs scattered through the runtime (ManagerStats and
// friends) answer "how many, in total"; the registry adds distributions —
// stall-time and load-latency histograms — and a uniform export path
// (JSON for machines, a Prometheus-style text page for eyeballs), so the
// BER/ablation benches can report percentiles instead of only means.
//
// Instruments are owned by the registry and handed out as stable
// references: look one up once, then update it with no further map
// traffic. Names are dotted paths ("rtr.manager.requests"); exports sort
// by name so diffs between runs line up.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pdr::obs {

/// Monotonically increasing count.
class Counter {
 public:
  void add(double delta = 1.0);
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Point-in-time value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram. `bounds` are ascending inclusive upper edges;
/// an implicit +inf bucket catches the overflow.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the +inf overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const { return buckets_; }

  /// Quantile estimate (q in [0,1]), linearly interpolated inside the
  /// containing bucket; the overflow bucket reports the observed max.
  double quantile(double q) const;

  /// Adds `other`'s observations to this histogram. Throws pdr::Error if
  /// the bucket bounds differ.
  void merge_from(const Histogram& other);

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// `count` buckets at start, start*factor, start*factor^2, ...
std::vector<double> exponential_buckets(double start, double factor, int count);

/// Default bucket edges for nanosecond latencies: 1 us .. ~17 s. One
/// table for the process, built on first use.
const std::vector<double>& latency_buckets_ns();

class MetricsRegistry {
 public:
  /// Returns the instrument registered under `name`, creating it on first
  /// use. Throws pdr::Error if `name` is already registered as a
  /// different instrument kind. Finding a registered name allocates
  /// nothing.
  Counter& counter(std::string_view name, std::string_view help = {});
  Gauge& gauge(std::string_view name, std::string_view help = {});
  /// `bounds` are only consulted on first registration.
  Histogram& histogram(std::string_view name, const std::vector<double>& bounds,
                       std::string_view help = {});

  bool contains(std::string_view name) const { return entries_.find(name) != entries_.end(); }
  std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }

  /// All registered names, sorted.
  std::vector<std::string> names() const;

  /// Folds `other` into this registry: counters add, gauges take
  /// `other`'s value (last merge wins), histograms merge bucket counts.
  /// Merging the same sequence of registries in the same order always
  /// produces an identical registry — the determinism the parallel
  /// scenario runner relies on. Throws pdr::Error on instrument-kind or
  /// histogram-bound mismatches.
  void merge(const MetricsRegistry& other);

  /// {"name": {"type": ..., "value"/"count"/"sum"/...}, ...}
  std::string to_json() const;

  /// Prometheus-exposition-flavoured text (one instrument per stanza).
  std::string to_text() const;

  /// Writes to_json() to `path`; throws pdr::Error on I/O failure.
  void write_json(const std::string& path) const;

 private:
  struct Entry {
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  /// The entry for `name`, default-constructed on first use.
  Entry& entry(std::string_view name, const char* where);

  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace pdr::obs
