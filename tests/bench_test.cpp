// The perf-harness contracts: generated DAGs are deterministic functions
// of their config (across runs and thread counts), structurally valid,
// and scheduled identically by both adequation engines; the BENCH_*.json
// emitter reports warm-up separately and never serializes statistics it
// does not have.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "aaa/adequation.hpp"
#include "bench/generators.hpp"
#include "bench/report.hpp"
#include "bench/rescan_reference.hpp"
#include "flow/scenario.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

using namespace pdr;
using bench::GeneratorConfig;
using bench::GraphShape;

namespace {

GeneratorConfig config_for(GraphShape shape, int n_ops, std::uint64_t seed = 17) {
  GeneratorConfig cfg;
  cfg.shape = shape;
  cfg.n_ops = n_ops;
  cfg.width = shape == GraphShape::Streaming ? 8 : 10;
  cfg.seed = seed;
  return cfg;
}

const GraphShape kShapes[] = {GraphShape::Layered, GraphShape::Random, GraphShape::Streaming};

}  // namespace

// --- generator determinism ---------------------------------------------------

TEST(Generators, SameConfigSameGraphAcrossRunsAndJobs) {
  for (const GraphShape shape : kShapes) {
    const GeneratorConfig cfg = config_for(shape, 400);
    const std::uint64_t serial = bench::graph_fingerprint(bench::generate_graph(cfg));
    EXPECT_EQ(serial, bench::graph_fingerprint(bench::generate_graph(cfg)))
        << bench::graph_shape_name(shape);

    // Generation inside the thread pool: every worker must see the same
    // bytes the serial run produced, whatever --jobs is.
    std::vector<flow::Scenario> scenarios;
    for (int i = 0; i < 6; ++i) {
      scenarios.push_back({"gen" + std::to_string(i), [cfg](obs::Sinks) {
                             return strprintf(
                                 "%016llx", static_cast<unsigned long long>(
                                                bench::graph_fingerprint(bench::generate_graph(cfg))));
                           }});
    }
    const std::string serial_report =
        flow::ScenarioRunner(1).run(scenarios).combined_report();
    const std::string parallel_report =
        flow::ScenarioRunner(4).run(scenarios).combined_report();
    EXPECT_EQ(serial_report, parallel_report) << bench::graph_shape_name(shape);
    EXPECT_NE(serial_report.find(strprintf("%016llx", static_cast<unsigned long long>(serial))),
              std::string::npos);
  }
}

TEST(Generators, SeedChangesTheSampledShapes) {
  // Layered and random draw edges from the seed; a different seed must
  // produce a different graph.
  for (const GraphShape shape : {GraphShape::Layered, GraphShape::Random}) {
    const auto a = bench::graph_fingerprint(bench::generate_graph(config_for(shape, 400, 17)));
    const auto b = bench::graph_fingerprint(bench::generate_graph(config_for(shape, 400, 18)));
    EXPECT_NE(a, b) << bench::graph_shape_name(shape);
  }
}

TEST(Generators, FingerprintsArePinned) {
  // Golden fingerprints: a change here is a change to every recorded
  // BENCH_*.json workload, and must be deliberate.
  EXPECT_EQ(bench::graph_fingerprint(
                bench::generate_graph(config_for(GraphShape::Layered, 200))),
            UINT64_C(2028162454563604505));
  EXPECT_EQ(bench::graph_fingerprint(bench::generate_graph(config_for(GraphShape::Random, 200))),
            UINT64_C(12100041945145026664));
  EXPECT_EQ(bench::graph_fingerprint(
                bench::generate_graph(config_for(GraphShape::Streaming, 200))),
            UINT64_C(14921633622283046827));
}

// --- generated-graph validity ------------------------------------------------

TEST(Generators, GraphsValidateAtEverySizeAndShape) {
  for (const GraphShape shape : kShapes) {
    for (const int n : {50, 500, 2'000}) {
      const GeneratorConfig cfg = config_for(shape, n);
      const aaa::AlgorithmGraph g = bench::generate_graph(cfg);
      SCOPED_TRACE(cfg.name());
      EXPECT_NO_THROW(g.validate());  // acyclic, sensor/actuator classes hold
      EXPECT_EQ(g.size(), static_cast<std::size_t>(n));
    }
  }
}

TEST(Generators, RandomAndStreamingHaveSingleSourceAndSink) {
  for (const GraphShape shape : {GraphShape::Random, GraphShape::Streaming}) {
    const GeneratorConfig cfg = config_for(shape, 500);
    const aaa::AlgorithmGraph g = bench::generate_graph(cfg);
    SCOPED_TRACE(cfg.name());
    int sensors = 0;
    int actuators = 0;
    for (const graph::NodeId n : g.digraph().node_ids()) {
      if (g.op(n).cls == aaa::OpClass::Sensor) ++sensors;
      if (g.op(n).cls == aaa::OpClass::Actuator) ++actuators;
    }
    EXPECT_EQ(sensors, 1);
    EXPECT_EQ(actuators, 1);
    // Every operation sits on a source-to-sink path: all reachable from
    // the source (reachable_from excludes the start node itself), and
    // everything without successors IS the sink.
    EXPECT_EQ(g.digraph().reachable_from(g.by_name("op0")).size(), g.size() - 1);
    for (const graph::NodeId n : g.digraph().node_ids()) {
      if (g.digraph().out_degree(n) == 0) {
        EXPECT_EQ(g.op(n).cls, aaa::OpClass::Actuator) << g.op(n).name;
      }
    }
  }
}

TEST(Generators, ConditionedMixIsConfigurable) {
  GeneratorConfig cfg = config_for(GraphShape::Layered, 300);
  const aaa::AlgorithmGraph mixed = bench::generate_graph(cfg);
  int conditioned = 0;
  for (const graph::NodeId n : mixed.digraph().node_ids())
    if (mixed.op(n).conditioned()) ++conditioned;
  EXPECT_GT(conditioned, 0);

  cfg.conditioned_every = 0;  // disables the reconfiguration mix entirely
  const aaa::AlgorithmGraph plain = bench::generate_graph(cfg);
  for (const graph::NodeId n : plain.digraph().node_ids())
    EXPECT_FALSE(plain.op(n).conditioned());
}

// --- scheduler equivalence on generated workloads ----------------------------

TEST(Generators, AdequationEnginesAgreeOnEveryShape) {
  const aaa::ArchitectureGraph arch = bench::bench_architecture(4, 2);
  const aaa::DurationTable durations = bench::bench_durations();
  std::vector<GeneratorConfig> configs;
  for (const GraphShape shape : kShapes) configs.push_back(config_for(shape, 1'000));
  configs.push_back(config_for(GraphShape::Layered, 5'000));

  for (const GeneratorConfig& cfg : configs) {
    SCOPED_TRACE(cfg.name());
    const aaa::AlgorithmGraph g = bench::generate_graph(cfg);
    const aaa::Adequation adequation(g, arch, durations);
    EXPECT_EQ(adequation.run().to_csv(), bench::schedule_rescan_reference(adequation).to_csv());
  }
}

TEST(Generators, BenchArchitectureIsDeterministicAndValid) {
  const aaa::ArchitectureGraph a = bench::bench_architecture(4, 2);
  const aaa::ArchitectureGraph b = bench::bench_architecture(4, 2);
  EXPECT_EQ(a.to_dot(), b.to_dot());
  EXPECT_NO_THROW(a.validate());
}

// --- report schema -----------------------------------------------------------

TEST(BenchReport, MeasureReportsWarmupSeparately) {
  int calls = 0;
  const bench::BenchRecord rec = bench::measure("r", 2, 3, [&] { ++calls; });
  EXPECT_EQ(calls, 5);  // 2 warm-up + 3 timed
  EXPECT_EQ(rec.warmup_runs, 2);
  EXPECT_GE(rec.warmup_ms, 0.0);
  EXPECT_EQ(rec.wall_ms.count(), 3u);  // warm-up never enters the samples
}

TEST(BenchReport, GitShaComesFromTheSourceTree) {
  char cwd[4096] = {};
  ASSERT_NE(::getcwd(cwd, sizeof(cwd)), nullptr);
  ASSERT_EQ(::chdir(PDR_SOURCE_DIR), 0);
  const std::string in_tree = bench::git_sha();
  char tmp_template[] = "/tmp/pdr_git_sha_XXXXXX";
  const char* tmp = ::mkdtemp(tmp_template);
  std::string elsewhere = "(no temp dir)";
  if (tmp != nullptr && ::chdir(tmp) == 0) elsewhere = bench::git_sha();
  ASSERT_EQ(::chdir(cwd), 0);
  if (tmp != nullptr) ::rmdir(tmp);
  if (in_tree == "unknown") GTEST_SKIP() << PDR_SOURCE_DIR << " is not a git checkout";
  EXPECT_EQ(in_tree.size(), 12u);
  EXPECT_EQ(elsewhere, in_tree);
}

TEST(BenchReport, JsonGatesStatisticsOnSampleCount) {
  bench::BenchRecord empty;
  empty.name = "empty";
  const std::string empty_json = bench::bench_json("t", true, {empty});
  EXPECT_NE(empty_json.find("\"wall_ms\": {\"count\": 0}"), std::string::npos);
  EXPECT_EQ(empty_json.find("mean"), std::string::npos);

  bench::BenchRecord one;
  one.name = "one";
  one.wall_ms.add(4.5);
  const std::string one_json = bench::bench_json("t", true, {one});
  EXPECT_NE(one_json.find("\"mean\": 4.5"), std::string::npos);
  EXPECT_EQ(one_json.find("stddev"), std::string::npos);  // needs >= 2 samples

  bench::BenchRecord three;
  three.name = "three";
  for (double v : {1.0, 2.0, 3.0}) three.wall_ms.add(v);
  const std::string three_json = bench::bench_json("t", false, {three});
  EXPECT_NE(three_json.find("\"count\": 3"), std::string::npos);
  EXPECT_NE(three_json.find("stddev"), std::string::npos);
  EXPECT_NE(three_json.find("\"min\": 1"), std::string::npos);
  EXPECT_NE(three_json.find("\"max\": 3"), std::string::npos);
}

TEST(BenchReport, JsonRejectsNonFiniteNumbers) {
  bench::BenchRecord rec;
  rec.name = "bad";
  rec.wall_ms.add(1.0);
  rec.extra.emplace_back("rate", std::numeric_limits<double>::infinity());
  EXPECT_THROW(bench::bench_json("t", false, {rec}), Error);
}
