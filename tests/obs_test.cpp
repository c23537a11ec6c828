#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/sinks.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

// Counts heap allocations, so a test can show a detached handle makes none.
namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC flags free() in a replacement operator delete even though the
// matching operator new above allocates with malloc().
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace pdr::obs {
namespace {

// --- tracer ----------------------------------------------------------------------

TEST(Tracer, RecordsSpansInstantsCounters) {
  Tracer t;
  EXPECT_TRUE(t.empty());
  t.span("port", "load qpsk", "load", 1000, 5000);
  t.instant("events", "switch", "decision", 2000);
  t.counter("stats", "stall", 3000, 42.0);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.events()[0].phase, TracePhase::Complete);
  EXPECT_EQ(t.events()[0].dur, 4000);
  EXPECT_EQ(t.events()[1].phase, TracePhase::Instant);
  EXPECT_EQ(t.events()[2].phase, TracePhase::Counter);
  EXPECT_DOUBLE_EQ(t.events()[2].value, 42.0);
  t.clear();
  EXPECT_TRUE(t.empty());
}

TEST(Tracer, RejectsNegativeDuration) {
  Tracer t;
  EXPECT_THROW(t.span("port", "bad", "load", 100, 50), pdr::Error);
}

TEST(Tracer, TotalDurationAndCountPerCategory) {
  Tracer t;
  t.span("port", "a", "load", 0, 100);
  t.span("port", "b", "load", 200, 500);
  t.span("staging", "c", "staging", 0, 1000);
  t.instant("port", "note", "load", 50);  // instants carry no duration
  EXPECT_EQ(t.total_duration("load"), 400);
  EXPECT_EQ(t.total_duration("staging"), 1000);
  EXPECT_EQ(t.total_duration("ghost"), 0);
  EXPECT_EQ(t.count("load"), 3u);
  EXPECT_EQ(t.count("staging"), 1u);
}

TEST(Tracer, ChromeJsonShape) {
  Tracer t;
  t.span("port", "load \"qpsk\"", "load", 1500, 2500, {{"module", "qpsk"}});
  t.instant("events", "x", "ev", 100);
  const std::string json = t.to_chrome_json();
  // Structural markers of the trace-event format.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // Timestamps in microseconds: 1500 ns -> 1.500 us.
  EXPECT_NE(json.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1.000"), std::string::npos);
  // The quote in the name must be escaped.
  EXPECT_NE(json.find("load \\\"qpsk\\\""), std::string::npos);
  EXPECT_NE(json.find("\"module\":\"qpsk\""), std::string::npos);
}

TEST(Tracer, JsonEscape) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(Tracer, WriteChromeJsonRoundTrips) {
  Tracer t;
  t.span("port", "load", "load", 0, 1000);
  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  t.write_chrome_json(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), t.to_chrome_json());
  std::remove(path.c_str());
}

// --- metrics ---------------------------------------------------------------------

TEST(Metrics, CounterAccumulatesAndRejectsNegative) {
  MetricsRegistry reg;
  Counter& c = reg.counter("x", "a counter");
  c.add();
  c.add(2.5);
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  EXPECT_THROW(c.add(-1.0), pdr::Error);
  // Same name returns the same counter.
  EXPECT_EQ(&reg.counter("x"), &c);
}

TEST(Metrics, GaugeSetsAndAdds) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("g");
  g.set(10.0);
  g.add(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(Metrics, HistogramBucketsAndQuantiles) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {10.0, 100.0, 1000.0});
  for (double v : {5.0, 50.0, 500.0, 5000.0}) h.observe(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 5555.0);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 5000.0);
  // Median must land in the second or third bucket's range.
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 10.0);
  EXPECT_LE(p50, 1000.0);
  // Everything beyond the last bound collapses to the observed max.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5000.0);
}

TEST(Metrics, ExponentialBuckets) {
  const auto b = exponential_buckets(1.0, 10.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[3], 1000.0);
  EXPECT_THROW(exponential_buckets(0.0, 2.0, 3), pdr::Error);
  EXPECT_THROW(exponential_buckets(1.0, 1.0, 3), pdr::Error);
}

TEST(Metrics, CrossKindRegistrationThrows) {
  MetricsRegistry reg;
  reg.counter("name");
  EXPECT_THROW(reg.gauge("name"), pdr::Error);
  EXPECT_THROW(reg.histogram("name", {1.0}), pdr::Error);
}

TEST(Metrics, NamesAreSorted) {
  MetricsRegistry reg;
  reg.counter("z");
  reg.gauge("a");
  reg.histogram("m", {1.0});
  const auto names = reg.names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "m");
  EXPECT_EQ(names[2], "z");
}

TEST(Metrics, JsonAndTextExposition) {
  MetricsRegistry reg;
  reg.counter("requests", "total demands").add(3.0);
  reg.gauge("used_bytes").set(128.0);
  Histogram& h = reg.histogram("lat", {10.0, 100.0}, "latency");
  h.observe(5.0);
  h.observe(50.0);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"requests\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);

  const std::string text = reg.to_text();
  EXPECT_NE(text.find("# TYPE requests counter"), std::string::npos);
  EXPECT_NE(text.find("# HELP requests total demands"), std::string::npos);
  // Cumulative buckets: le="100" holds both observations.
  EXPECT_NE(text.find("le=\"100\"} 2"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\"} 2"), std::string::npos);
}

// --- sinks handle and recorder ------------------------------------------------

TEST(Sinks, DetachedHandleRecordsAndAllocatesNothing) {
  const Sinks sinks;
  EXPECT_FALSE(sinks.attached());
  const std::string region = "a region name too long for small-string storage";
  Recorder other;
  other.tracer.instant("track", "event", "cat", 0);
  other.metrics.counter("c").add();
  bool called = false;

  const long before = g_allocations.load();
  sinks.count({"rtr.manager.", region});
  sinks.count("rtr.cache.hits", 2.0);
  sinks.gauge({"rtr.manager.health.", region}, 1.0);
  sinks.observe("rtr.manager.stall_ns", 5.0, "demand stall");
  sinks.span("cfg_port", {"load ", region}, "load", 100, 50);  // end < start is never checked
  sinks.instant("events", region, "sim_event", 0);
  sinks.trace([&](Tracer&) { called = true; });
  sinks.merge(other, "dev0/");
  const long allocations = g_allocations.load() - before;

  EXPECT_EQ(allocations, 0);
  EXPECT_FALSE(called);
}

TEST(Sinks, AttachedHandleOnRegisteredNameAllocatesNothing) {
  Recorder recorder;
  const Sinks sinks(recorder);
  // Longer than small-string storage, so joining it would allocate.
  const char* const counter = "rtr.manager.requests.total";
  const char* const histogram = "rtr.manager.stall_ns.demand";
  sinks.count(counter);
  sinks.observe(histogram, 5.0, "demand stall");

  const long before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) {
    sinks.count(counter);
    sinks.observe(histogram, 5.0, "demand stall");
  }
  const long allocations = g_allocations.load() - before;

  EXPECT_EQ(allocations, 0);
  EXPECT_DOUBLE_EQ(recorder.metrics.counter(counter).value(), 1001.0);
  EXPECT_EQ(recorder.metrics.histogram(histogram, latency_buckets_ns()).count(), 1001u);
}

TEST(Sinks, AttachedHandleMatchesDirectCalls) {
  Recorder via;
  Recorder direct;
  const Sinks sinks(via);
  EXPECT_TRUE(sinks.attached());
  const std::string region = "D1";

  sinks.count({"rtr.manager.", "requests"});
  sinks.count("rtr.manager.requests", 2.0);
  sinks.gauge({"rtr.manager.health.", region}, 1.0);
  sinks.observe("rtr.manager.stall_ns", 1500.0, "demand stall");
  sinks.span("cfg_port", {"load ", "qpsk -> ", region}, "load", 10, 40);
  sinks.instant("events", "tick", "sim_event", 7);
  sinks.trace([&](Tracer& t) {
    t.instant("health", region + " -> degraded", "health", 9, {{"why", "crc"}});
  });

  direct.metrics.counter("rtr.manager.requests").add();
  direct.metrics.counter("rtr.manager.requests").add(2.0);
  direct.metrics.gauge("rtr.manager.health.D1").set(1.0);
  direct.metrics.histogram("rtr.manager.stall_ns", latency_buckets_ns(), "demand stall")
      .observe(1500.0);
  direct.tracer.span("cfg_port", "load qpsk -> D1", "load", 10, 40);
  direct.tracer.instant("events", "tick", "sim_event", 7);
  direct.tracer.instant("health", "D1 -> degraded", "health", 9, {{"why", "crc"}});

  EXPECT_EQ(via.tracer.to_chrome_json(), direct.tracer.to_chrome_json());
  EXPECT_EQ(via.metrics.to_json(), direct.metrics.to_json());
  EXPECT_EQ(via.metrics.to_text(), direct.metrics.to_text());

  // A copy of the handle records into the same recorder.
  const Sinks copy = sinks;
  copy.count("rtr.manager.requests");
  EXPECT_DOUBLE_EQ(via.metrics.counter("rtr.manager.requests").value(), 4.0);
  // Spans keep the tracer's own check.
  EXPECT_THROW(sinks.span("cfg_port", "bad", "load", 100, 50), pdr::Error);
}

TEST(Recorder, MergeInListOrderMatchesAppendThenMerge) {
  std::vector<Recorder> parts(3);
  for (int i = 0; i < 3; ++i) {
    Recorder& r = parts[static_cast<std::size_t>(i)];
    r.tracer.span("cfg_port", "load", "load", i, i + 10);
    r.tracer.instant("health", "h", "health", i);
    r.metrics.counter("rtr.manager.requests").add(i + 1.0);
    r.metrics.gauge("sim.player.makespan_ns").set(100.0 * i);
    r.metrics.histogram("lat", {10.0, 100.0}).observe(5.0 * i);
  }

  Recorder merged;
  Recorder via_handle;
  const Sinks handle(via_handle);
  Tracer trace;
  MetricsRegistry metrics;
  for (int i = 0; i < 3; ++i) {
    const std::string prefix = "scn" + std::to_string(i) + "/";
    merged.merge(parts[static_cast<std::size_t>(i)], prefix);
    handle.merge(parts[static_cast<std::size_t>(i)], prefix);
    trace.append(parts[static_cast<std::size_t>(i)].tracer, prefix);
  }
  for (const Recorder& r : parts) metrics.merge(r.metrics);

  EXPECT_EQ(merged.tracer.to_chrome_json(), trace.to_chrome_json());
  EXPECT_EQ(merged.metrics.to_json(), metrics.to_json());
  EXPECT_EQ(via_handle.tracer.to_chrome_json(), trace.to_chrome_json());
  EXPECT_EQ(via_handle.metrics.to_json(), metrics.to_json());
  EXPECT_EQ(merged.tracer.events()[2].track, "scn1/cfg_port");
  EXPECT_DOUBLE_EQ(merged.metrics.counter("rtr.manager.requests").value(), 6.0);
  EXPECT_DOUBLE_EQ(merged.metrics.gauge("sim.player.makespan_ns").value(), 200.0);
}

}  // namespace
}  // namespace pdr::obs
