#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

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

}  // namespace
}  // namespace pdr::obs
