// pdr::flow tests: fingerprints, the content-addressed artifact store,
// pipeline cache hit/invalidation (a one-byte input edit re-runs exactly
// the downstream stages), and the scenario runner's determinism contract
// (serial and parallel sweeps produce byte-identical merged output).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "flow/artifact_store.hpp"
#include "flow/fingerprint.hpp"
#include "flow/pipeline.hpp"
#include "flow/scenario.hpp"
#include "mccdma/case_study.hpp"
#include "mccdma/flow_presets.hpp"
#include "obs/sinks.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

using namespace pdr;

namespace {

// --- fingerprints -----------------------------------------------------

TEST(Fingerprint, Deterministic) {
  EXPECT_EQ(flow::fingerprint_of("abc").value(), flow::fingerprint_of("abc").value());
  EXPECT_NE(flow::fingerprint_of("abc").value(), flow::fingerprint_of("abd").value());
}

TEST(Fingerprint, LengthPrefixedNoConcatenationAliasing) {
  flow::Fingerprint a;
  a.mix(std::string("ab")).mix(std::string("c"));
  flow::Fingerprint b;
  b.mix(std::string("a")).mix(std::string("bc"));
  EXPECT_NE(a.value(), b.value());
}

TEST(Fingerprint, OrderSensitive) {
  flow::Fingerprint a;
  a.mix(std::uint64_t{1}).mix(std::uint64_t{2});
  flow::Fingerprint b;
  b.mix(std::uint64_t{2}).mix(std::uint64_t{1});
  EXPECT_NE(a.value(), b.value());
}

// --- artifact store ---------------------------------------------------

TEST(ArtifactStore, BuildsOnceThenServesFromCache) {
  flow::ArtifactStore store;
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return 42;
  };
  const auto key = flow::fingerprint_of("k");
  EXPECT_EQ(*store.get_or_build<int>("stage", key, build), 42);
  EXPECT_EQ(*store.get_or_build<int>("stage", key, build), 42);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(store.runs("stage"), 1u);
  EXPECT_EQ(store.hits("stage"), 1u);
}

TEST(ArtifactStore, DistinctKeysAndStagesAreDistinctEntries) {
  flow::ArtifactStore store;
  store.get_or_build<int>("a", flow::fingerprint_of("x"), [] { return 1; });
  store.get_or_build<int>("a", flow::fingerprint_of("y"), [] { return 2; });
  store.get_or_build<int>("b", flow::fingerprint_of("x"), [] { return 3; });
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.runs("a"), 2u);
  EXPECT_EQ(store.runs("b"), 1u);
  EXPECT_EQ(*store.get_or_build<int>("a", flow::fingerprint_of("x"), [] { return 9; }), 1);
}

TEST(ArtifactStore, ThrowingBuilderDoesNotPoisonTheKey) {
  flow::ArtifactStore store;
  const auto key = flow::fingerprint_of("k");
  EXPECT_THROW(store.get_or_build<int>("s", key,
                                       []() -> int { throw Error("builder failed"); }),
               Error);
  EXPECT_EQ(*store.get_or_build<int>("s", key, [] { return 7; }), 7);
  EXPECT_EQ(store.runs("s"), 2u);  // both attempts ran the builder
}

TEST(ArtifactStore, RequestingWrongTypeThrows) {
  flow::ArtifactStore store;
  const auto key = flow::fingerprint_of("k");
  store.get_or_build<int>("s", key, [] { return 1; });
  EXPECT_THROW(store.get_or_build<double>("s", key, [] { return 1.0; }), Error);
}

TEST(ArtifactStore, SingleFlightUnderConcurrency) {
  flow::ArtifactStore store;
  const auto key = flow::fingerprint_of("k");
  std::atomic<int> builds{0};
  std::vector<std::thread> threads;
  std::vector<int> results(8, 0);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const auto v = store.get_or_build<int>("s", key, [&] {
        ++builds;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return 5;
      });
      results[static_cast<std::size_t>(t)] = *v;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(store.runs("s"), 1u);
  EXPECT_EQ(store.hits("s"), 7u);
  for (int r : results) EXPECT_EQ(r, 5);
}

// --- pipeline caching -------------------------------------------------

flow::PipelineOptions case_study_options() {
  flow::PipelineOptions options;
  options.constraints_text = mccdma::case_study_constraints_text();
  options.statics = mccdma::case_study_statics();
  aaa::Project project;
  project.name = "t";
  project.algorithm = mccdma::make_transmitter_algorithm(mccdma::McCdmaParams{});
  project.architecture = aaa::make_sundance_architecture();
  project.durations = aaa::mccdma_durations();
  options.project_text = aaa::write_project(project);
  return options;
}

TEST(Pipeline, RepeatedStageWithUnchangedInputsIsServedFromCache) {
  auto store = std::make_shared<flow::ArtifactStore>();
  flow::Pipeline first(case_study_options(), store);
  flow::Pipeline second(case_study_options(), store);

  const auto b1 = first.bundle();
  const auto b2 = second.bundle();
  EXPECT_EQ(store->runs(flow::stage::kSynth), 1u);
  EXPECT_GE(store->hits(flow::stage::kSynth), 1u);
  EXPECT_EQ(b1.get(), b2.get());  // literally the same artifact

  // Same pipeline asked again: still one run.
  first.bundle();
  EXPECT_EQ(store->runs(flow::stage::kSynth), 1u);
}

TEST(Pipeline, CountsItsOwnStageCallsIntoItsSinks) {
  // flow.cache.* counts this pipeline's calls only: a build another
  // pipeline ran on the same store is a hit here, not a run.
  auto store = std::make_shared<flow::ArtifactStore>();
  flow::Pipeline(case_study_options(), store).bundle();

  obs::Recorder recorder;
  flow::Pipeline observed(case_study_options(), store);
  observed.set_sinks(obs::Sinks(recorder));
  observed.bundle();
  observed.bundle();
  obs::MetricsRegistry& m = recorder.metrics;
  EXPECT_EQ(m.counter("flow.cache.synth.runs").value(), 0.0);
  EXPECT_EQ(m.counter("flow.cache.synth.hits").value(), 2.0);
  EXPECT_EQ(m.counter("flow.cache.lint.hits").value(), 2.0);
  EXPECT_EQ(m.counter("flow.cache.parse_constraints.hits").value(), 4.0);
  EXPECT_EQ(store->hits(flow::stage::kSynth), 2u);
  // Every hit is one "(cached)" instant; no stage ran, so no stage span.
  EXPECT_EQ(recorder.tracer.count("flow_cache"), 8u);
  EXPECT_EQ(recorder.tracer.count("flow_stage"), 0u);

  // A stage this pipeline builds counts as its run.
  observed.adequation();
  EXPECT_EQ(m.counter("flow.cache.parse_project.runs").value(), 1.0);
  EXPECT_EQ(m.counter("flow.cache.adequation.runs").value(), 1.0);
  EXPECT_EQ(m.counter("flow.cache.adequation.hits").value(), 0.0);
}

TEST(Pipeline, ConcurrentCallersCountOneRunBetweenThem) {
  // Several pipelines ask for the same missing bundle at once: exactly
  // one of them counts the run, whatever the interleaving.
  auto store = std::make_shared<flow::ArtifactStore>();
  constexpr int kThreads = 4;
  std::vector<obs::Recorder> recorders(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      flow::Pipeline pipeline(case_study_options(), store);
      pipeline.set_sinks(obs::Sinks(recorders[static_cast<std::size_t>(t)]));
      pipeline.bundle();
    });
  }
  for (auto& t : threads) t.join();
  double runs = 0;
  double hits = 0;
  for (obs::Recorder& r : recorders) {
    runs += r.metrics.counter("flow.cache.synth.runs").value();
    hits += r.metrics.counter("flow.cache.synth.hits").value();
  }
  EXPECT_EQ(runs, 1.0);
  EXPECT_EQ(hits, kThreads - 1.0);
  EXPECT_EQ(store->runs(flow::stage::kSynth), 1u);
}

TEST(Pipeline, ConstraintsEditRerunsExactlyTheConstraintsSide) {
  auto store = std::make_shared<flow::ArtifactStore>();
  flow::Pipeline base(case_study_options(), store);
  base.bundle();
  base.adequation();
  base.codegen();
  EXPECT_EQ(store->runs(flow::stage::kParseConstraints), 1u);
  EXPECT_EQ(store->runs(flow::stage::kSynth), 1u);
  EXPECT_EQ(store->runs(flow::stage::kParseProject), 1u);
  EXPECT_EQ(store->runs(flow::stage::kAdequation), 1u);
  EXPECT_EQ(store->runs(flow::stage::kCodegen), 1u);

  // One-byte edit of the constraints input: the constraints side
  // (parse, lint, synth) re-runs, and codegen (whose generated wiring
  // reads the constraints + floorplan) re-runs — but the project parse
  // and the adequation are untouched upstream, so they stay cached.
  flow::PipelineOptions edited = case_study_options();
  edited.constraints_text += "#";
  flow::Pipeline changed(std::move(edited), store);
  changed.bundle();
  changed.adequation();
  changed.codegen();
  EXPECT_EQ(store->runs(flow::stage::kParseConstraints), 2u);
  EXPECT_EQ(store->runs(flow::stage::kLint), 2u);
  EXPECT_EQ(store->runs(flow::stage::kSynth), 2u);
  EXPECT_EQ(store->runs(flow::stage::kCodegen), 2u);
  EXPECT_EQ(store->runs(flow::stage::kParseProject), 1u);  // cached
  EXPECT_EQ(store->runs(flow::stage::kAdequation), 1u);    // cached
}

TEST(Pipeline, ProjectEditRerunsExactlyTheProjectSide) {
  auto store = std::make_shared<flow::ArtifactStore>();
  flow::Pipeline base(case_study_options(), store);
  base.bundle();
  base.adequation();
  base.codegen();

  flow::PipelineOptions edited = case_study_options();
  edited.project_text += "\n";
  flow::Pipeline changed(std::move(edited), store);
  changed.bundle();
  changed.adequation();
  changed.codegen();
  EXPECT_EQ(store->runs(flow::stage::kParseConstraints), 1u);  // cached
  EXPECT_EQ(store->runs(flow::stage::kSynth), 1u);             // cached
  EXPECT_EQ(store->runs(flow::stage::kParseProject), 2u);
  EXPECT_EQ(store->runs(flow::stage::kAdequation), 2u);
  EXPECT_EQ(store->runs(flow::stage::kCodegen), 2u);
}

TEST(Pipeline, AdequationKnobsArePartOfTheCacheKey) {
  auto store = std::make_shared<flow::ArtifactStore>();
  flow::PipelineOptions options = case_study_options();
  flow::Pipeline with_prefetch(options, store);
  with_prefetch.adequation();
  options.prefetch = false;
  flow::Pipeline without_prefetch(options, store);
  without_prefetch.adequation();
  EXPECT_EQ(store->runs(flow::stage::kAdequation), 2u);
  EXPECT_EQ(store->runs(flow::stage::kParseProject), 1u);  // same text
}

TEST(Pipeline, ReconfigCostCallbackRequiresTag) {
  flow::PipelineOptions options = case_study_options();
  options.reconfig_cost_fn = [](const std::string&, const std::string&) -> TimeNs { return 1; };
  EXPECT_THROW(flow::Pipeline(std::move(options)), Error);
}

TEST(Pipeline, FaultCampaignCachedBySeed) {
  auto store = std::make_shared<flow::ArtifactStore>();
  flow::PipelineOptions options;
  options.constraints_text = mccdma::case_study_constraints_text();
  options.statics = mccdma::case_study_statics();
  flow::Pipeline pipeline(std::move(options), store);

  const std::string spec = "horizon_ms 50\nseu D1 rate 100\n";
  flow::FaultCampaignOptions opts;
  opts.seed = 3;
  const auto r1 = pipeline.fault_campaign(spec, opts);
  const auto r2 = pipeline.fault_campaign(spec, opts);
  EXPECT_EQ(r1.get(), r2.get());
  EXPECT_EQ(store->runs(flow::stage::kFaultCampaign), 1u);
  opts.seed = 4;
  pipeline.fault_campaign(spec, opts);
  EXPECT_EQ(store->runs(flow::stage::kFaultCampaign), 2u);
  // The on-chip cache size keys the stage too: a new size re-runs it, the
  // same size is served from the cache.
  opts.cache_capacity = 200'000;
  const auto cached = pipeline.fault_campaign(spec, opts);
  EXPECT_EQ(store->runs(flow::stage::kFaultCampaign), 3u);
  EXPECT_EQ(pipeline.fault_campaign(spec, opts).get(), cached.get());
  EXPECT_EQ(store->runs(flow::stage::kFaultCampaign), 3u);
}

// --- scenario runner --------------------------------------------------

std::vector<flow::Scenario> three_seed_sweep() {
  std::vector<flow::Scenario> scenarios;
  for (std::uint64_t seed : {42u, 43u, 44u}) {
    scenarios.push_back(mccdma::transmitter_scenario(
        "seed=" + std::to_string(seed),
        mccdma::sweep_system_config(aaa::PrefetchChoice::Schedule, seed), 256));
  }
  return scenarios;
}

TEST(ScenarioRunner, SerialAndParallelSweepsAreByteIdentical) {
  mccdma::shared_case_study();  // warm the shared bundle
  const auto scenarios = three_seed_sweep();
  const flow::SweepResult serial = flow::ScenarioRunner(1).run(scenarios);
  const flow::SweepResult parallel = flow::ScenarioRunner(4).run(scenarios);

  ASSERT_EQ(serial.results.size(), 3u);
  EXPECT_EQ(serial.failures(), 0u);
  EXPECT_EQ(serial.combined_report(), parallel.combined_report());
  EXPECT_EQ(serial.recorder.metrics.to_json(), parallel.recorder.metrics.to_json());
  EXPECT_EQ(serial.recorder.tracer.to_chrome_json(), parallel.recorder.tracer.to_chrome_json());
}

TEST(ScenarioRunner, MergesTracksUnderScenarioNamePrefixes) {
  std::vector<flow::Scenario> scenarios;
  for (int i = 0; i < 3; ++i) {
    scenarios.push_back({"scn" + std::to_string(i), [i](obs::Sinks sinks) {
                           sinks.instant("track", "evt", "cat", i);
                           return "r" + std::to_string(i) + "\n";
                         }});
  }
  const flow::SweepResult sweep = flow::ScenarioRunner(2).run(scenarios);
  ASSERT_EQ(sweep.recorder.tracer.size(), 3u);
  EXPECT_EQ(sweep.recorder.tracer.events()[0].track, "scn0/track");
  EXPECT_EQ(sweep.recorder.tracer.events()[2].track, "scn2/track");
  EXPECT_EQ(sweep.combined_report(), "=== scn0 ===\nr0\n=== scn1 ===\nr1\n=== scn2 ===\nr2\n");
}

TEST(ScenarioRunner, MergedMetricsAreExactUnderEightJobs) {
  // 32 scenarios on 8 workers, each recording into its own registry;
  // the merge must count every observation exactly once. (The CI TSan
  // job runs this test to prove data-race freedom, not just totals.)
  std::vector<flow::Scenario> scenarios;
  for (int i = 0; i < 32; ++i) {
    scenarios.push_back({strprintf("s%d", i), [i](obs::Sinks sinks) {
                           for (int k = 0; k <= i; ++k) sinks.count("sweep.work");
                           sinks.observe("sweep.h", i);
                           return std::string();
                         }});
  }
  flow::SweepResult sweep = flow::ScenarioRunner(8).run(scenarios);
  EXPECT_EQ(sweep.failures(), 0u);
  // sum over i of (i+1) = 32*33/2
  EXPECT_EQ(sweep.recorder.metrics.counter("sweep.work").value(), 528.0);
  EXPECT_EQ(sweep.recorder.metrics.histogram("sweep.h", obs::latency_buckets_ns()).count(), 32u);
}

TEST(ScenarioRunner, ScenarioExceptionIsIsolated) {
  std::vector<flow::Scenario> scenarios = {
      {"ok", [](obs::Sinks) { return std::string("fine\n"); }},
      {"boom", [](obs::Sinks) -> std::string { throw Error("exploded"); }},
  };
  const flow::SweepResult sweep = flow::ScenarioRunner(2).run(scenarios);
  EXPECT_EQ(sweep.failures(), 1u);
  EXPECT_TRUE(sweep.results[0].ok());
  EXPECT_FALSE(sweep.results[1].ok());
  EXPECT_NE(sweep.combined_report().find("ERROR: exploded"), std::string::npos);
}

TEST(ScenarioRunner, NonStandardExceptionIsReportedNotFatal) {
  const std::vector<flow::Scenario> scenarios = {
      {"int", [](obs::Sinks) -> std::string { throw 42; }},
      {"ok", [](obs::Sinks) { return std::string("fine\n"); }},
  };
  for (const int jobs : {1, 2}) {
    const flow::SweepResult sweep = flow::ScenarioRunner(jobs).run(scenarios);
    EXPECT_EQ(sweep.results[0].error, "unknown exception") << "jobs " << jobs;
    EXPECT_TRUE(sweep.results[1].ok()) << "jobs " << jobs;
  }
}

// --- presets ----------------------------------------------------------

TEST(Presets, RunFlowFromConstraintsHitsTheSharedCache) {
  const auto store = flow::default_store();
  const std::uint64_t runs_before = store->runs(flow::stage::kSynth);
  const aaa::ConstraintSet constraints =
      aaa::parse_constraints(mccdma::case_study_constraints_text());
  const synth::DesignBundle a =
      mccdma::run_flow_from_constraints(constraints, mccdma::case_study_statics());
  const synth::DesignBundle b =
      mccdma::run_flow_from_constraints(constraints, mccdma::case_study_statics());
  EXPECT_EQ(a.initial_bitstream, b.initial_bitstream);
  // Both calls resolved to at most one new synth run (zero when another
  // test already built the case study in this process).
  EXPECT_LE(store->runs(flow::stage::kSynth), runs_before + 1);
}

}  // namespace
