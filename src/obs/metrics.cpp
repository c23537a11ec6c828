#include "obs/metrics.hpp"

#include <algorithm>
#include <fstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdr::obs {

void Counter::add(double delta) {
  PDR_CHECK(delta >= 0.0, "Counter::add", "counters only increase");
  value_ += delta;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  PDR_CHECK(!bounds_.empty(), "Histogram", "need at least one bucket bound");
  PDR_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()), "Histogram",
            "bucket bounds must be ascending");
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += x;
  if (count_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
}

double Histogram::quantile(double q) const {
  PDR_CHECK(q >= 0.0 && q <= 1.0, "Histogram::quantile", "q outside [0,1]");
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (buckets_[b] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += buckets_[b];
    if (static_cast<double>(cumulative) < target) continue;
    if (b == bounds_.size()) return max_;  // overflow bucket
    const double lo = b == 0 ? std::min(min_, bounds_[0]) : bounds_[b - 1];
    const double hi = bounds_[b];
    const double frac =
        (target - static_cast<double>(before)) / static_cast<double>(buckets_[b]);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return max_;
}

void Histogram::merge_from(const Histogram& other) {
  PDR_CHECK(bounds_ == other.bounds_, "Histogram::merge_from", "bucket bounds differ");
  if (other.count_ == 0) return;
  for (std::size_t b = 0; b < buckets_.size(); ++b) buckets_[b] += other.buckets_[b];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

std::vector<double> exponential_buckets(double start, double factor, int count) {
  PDR_CHECK(start > 0.0 && factor > 1.0 && count > 0, "exponential_buckets",
            "need start > 0, factor > 1, count > 0");
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  double edge = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(edge);
    edge *= factor;
  }
  return bounds;
}

const std::vector<double>& latency_buckets_ns() {
  // 1 us doubling up to ~17 s: covers port transfers through cold loads.
  static const std::vector<double> bounds = exponential_buckets(1e3, 2.0, 25);
  return bounds;
}

namespace {

std::string other_kind(std::string_view name) {
  return strprintf("'%.*s' is already registered as another kind", static_cast<int>(name.size()),
                   name.data());
}

}  // namespace

MetricsRegistry::Entry& MetricsRegistry::entry(std::string_view name, const char* where) {
  PDR_CHECK(!name.empty(), where, "empty metric name");
  auto it = entries_.find(name);
  if (it == entries_.end()) it = entries_.emplace(std::string(name), Entry{}).first;
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help) {
  Entry& e = entry(name, "MetricsRegistry::counter");
  PDR_CHECK(!e.gauge && !e.histogram, "MetricsRegistry::counter", other_kind(name));
  if (!e.counter) {
    e.counter = std::make_unique<Counter>();
    e.help = help;
  }
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  Entry& e = entry(name, "MetricsRegistry::gauge");
  PDR_CHECK(!e.counter && !e.histogram, "MetricsRegistry::gauge", other_kind(name));
  if (!e.gauge) {
    e.gauge = std::make_unique<Gauge>();
    e.help = help;
  }
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name, const std::vector<double>& bounds,
                                      std::string_view help) {
  Entry& e = entry(name, "MetricsRegistry::histogram");
  PDR_CHECK(!e.counter && !e.gauge, "MetricsRegistry::histogram", other_kind(name));
  if (!e.histogram) {
    e.histogram = std::make_unique<Histogram>(bounds);
    e.help = help;
  }
  return *e.histogram;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, e] : other.entries_) {
    if (e.counter) {
      counter(name, e.help).add(e.counter->value());
    } else if (e.gauge) {
      gauge(name, e.help).set(e.gauge->value());
    } else if (e.histogram) {
      histogram(name, e.histogram->bounds(), e.help).merge_from(*e.histogram);
    }
  }
}

std::vector<std::string> MetricsRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, e] : entries_) {
    if (!first) out += ',';
    first = false;
    out += strprintf("\"%s\":", name.c_str());
    if (e.counter) {
      out += strprintf("{\"type\":\"counter\",\"value\":%g}", e.counter->value());
    } else if (e.gauge) {
      out += strprintf("{\"type\":\"gauge\",\"value\":%g}", e.gauge->value());
    } else {
      const Histogram& h = *e.histogram;
      out += strprintf("{\"type\":\"histogram\",\"count\":%llu,\"sum\":%g,\"min\":%g,"
                       "\"max\":%g,\"mean\":%g,\"p50\":%g,\"p95\":%g,\"p99\":%g,\"buckets\":[",
                       static_cast<unsigned long long>(h.count()), h.sum(), h.min(), h.max(),
                       h.mean(), h.quantile(0.5), h.quantile(0.95), h.quantile(0.99));
      for (std::size_t b = 0; b < h.bucket_counts().size(); ++b) {
        if (b > 0) out += ',';
        const double edge =
            b < h.bounds().size() ? h.bounds()[b] : -1.0;  // -1 marks the +inf bucket
        out += strprintf("{\"le\":%g,\"count\":%llu}", edge,
                         static_cast<unsigned long long>(h.bucket_counts()[b]));
      }
      out += "]}";
    }
  }
  out += "}";
  return out;
}

std::string MetricsRegistry::to_text() const {
  std::string out;
  for (const auto& [name, e] : entries_) {
    if (!e.help.empty()) out += strprintf("# HELP %s %s\n", name.c_str(), e.help.c_str());
    if (e.counter) {
      out += strprintf("# TYPE %s counter\n%s %g\n", name.c_str(), name.c_str(),
                       e.counter->value());
    } else if (e.gauge) {
      out += strprintf("# TYPE %s gauge\n%s %g\n", name.c_str(), name.c_str(), e.gauge->value());
    } else {
      const Histogram& h = *e.histogram;
      out += strprintf("# TYPE %s histogram\n", name.c_str());
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < h.bucket_counts().size(); ++b) {
        cumulative += h.bucket_counts()[b];
        if (b < h.bounds().size())
          out += strprintf("%s_bucket{le=\"%g\"} %llu\n", name.c_str(), h.bounds()[b],
                           static_cast<unsigned long long>(cumulative));
        else
          out += strprintf("%s_bucket{le=\"+Inf\"} %llu\n", name.c_str(),
                           static_cast<unsigned long long>(cumulative));
      }
      out += strprintf("%s_sum %g\n%s_count %llu\n", name.c_str(), h.sum(), name.c_str(),
                       static_cast<unsigned long long>(h.count()));
    }
  }
  return out;
}

void MetricsRegistry::write_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  PDR_CHECK(out.good(), "MetricsRegistry::write_json", "cannot open '" + path + "'");
  const std::string json = to_json();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  PDR_CHECK(out.good(), "MetricsRegistry::write_json", "write to '" + path + "' failed");
}

}  // namespace pdr::obs
