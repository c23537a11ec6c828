#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "aaa/explorer.hpp"
#include "bench/generators.hpp"
#include "flow/explorer.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace pdr {
namespace {

using namespace pdr::literals;

/// Small project with one dynamic region and one conditioned vertex: a
/// 3 strategies x 2 prefetch x 3 preloads x 2 selections = 36-point space.
aaa::Project tiny_project() {
  aaa::Project project;
  project.name = "tiny";

  project.algorithm.add_operation({"a", "src", {}, aaa::OpClass::Sensor, {}});
  project.algorithm.add_conditioned("m", {{"qpsk", "qpsk_k", {}}, {"qam16", "qam16_k", {}}});
  project.algorithm.add_operation({"c", "sink", {}, aaa::OpClass::Actuator, {}});
  project.algorithm.add_dependency("a", "m", 100);
  project.algorithm.add_dependency("m", "c", 100);

  project.architecture.add_operator(aaa::OperatorNode{"CPU", aaa::OperatorKind::Processor, 1.0, "", ""});
  project.architecture.add_operator(
      aaa::OperatorNode{"D1", aaa::OperatorKind::FpgaRegion, 1.0, "XC2V2000", "D1"});
  project.architecture.add_medium(aaa::MediumNode{"BUS", 100e6, 100});
  project.architecture.connect("CPU", "BUS");
  project.architecture.connect("D1", "BUS");

  for (const char* kind : {"src", "sink"}) project.durations.set(kind, aaa::OperatorKind::Processor, 1'000);
  for (const char* kind : {"qpsk_k", "qam16_k"}) {
    project.durations.set(kind, aaa::OperatorKind::Processor, 50'000);
    project.durations.set(kind, aaa::OperatorKind::FpgaRegion, 2'000);
  }
  return project;
}

TEST(ExplorationSpace, FromProjectEnumeratesAllAxes) {
  const aaa::Project project = tiny_project();
  const aaa::ExplorationSpace space = aaa::ExplorationSpace::from_project(project);
  EXPECT_EQ(space.strategies.size(), 3u);
  EXPECT_EQ(space.prefetch.size(), 2u);
  ASSERT_EQ(space.preloads.size(), 1u);
  EXPECT_EQ(space.preloads[0].first, "D1");
  // Empty region + the two region-capable alternatives.
  EXPECT_EQ(space.preloads[0].second.size(), 3u);
  ASSERT_EQ(space.selections.size(), 1u);
  EXPECT_EQ(space.selections[0].first, "m");
  EXPECT_EQ(space.selections[0].second.size(), 2u);

  EXPECT_EQ(space.point_count(), 36u);
  const auto points = space.enumerate();
  EXPECT_EQ(points.size(), 36u);
  std::set<std::string> names;
  for (const auto& point : points) names.insert(point.name());
  EXPECT_EQ(names.size(), 36u);  // point names are unique
}

TEST(ExplorationSpace, EnumerationOrderIsStable) {
  const aaa::ExplorationSpace space =
      aaa::ExplorationSpace::from_project(tiny_project());
  const auto a = space.enumerate();
  const auto b = space.enumerate();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].name(), b[i].name());
}

TEST(ExplorationSpace, FloorplanAxisMultipliesTheSpace) {
  // Tentpole wiring: an explicit floorplan axis multiplies the point
  // count and tags point names, while an empty axis leaves the legacy
  // enumeration bit-for-bit unchanged.
  const aaa::Project project = tiny_project();
  aaa::ExplorationSpace space = aaa::ExplorationSpace::from_project(project);
  const auto baseline = space.enumerate();

  aaa::FloorplanChoice narrow;
  narrow.name = "plan";
  narrow.region_load_ns["D1"] = 1'500'000;
  aaa::FloorplanChoice wide;
  wide.name = "plan+1c";
  wide.region_load_ns["D1"] = 2'250'000;
  space.floorplans = {narrow, wide};

  EXPECT_EQ(space.point_count(), baseline.size() * 2);
  const auto points = space.enumerate();
  ASSERT_EQ(points.size(), baseline.size() * 2);
  std::set<std::string> names;
  for (const auto& point : points) {
    names.insert(point.name());
    EXPECT_FALSE(point.floorplan.name.empty());
    EXPECT_NE(point.name().find("/fp["), std::string::npos) << point.name();
  }
  EXPECT_EQ(names.size(), points.size());

  // The floorplan axis is innermost: stripping it recovers the baseline
  // order exactly.
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(points[2 * i].floorplan.name, "plan");
    EXPECT_EQ(points[2 * i + 1].floorplan.name, "plan+1c");
    const std::string base_name = baseline[i].name();
    EXPECT_EQ(points[2 * i].name().substr(0, base_name.size()), base_name);
  }

  // Empty axis: nothing changes.
  space.floorplans.clear();
  const auto again = space.enumerate();
  ASSERT_EQ(again.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(again[i].name(), baseline[i].name());
    EXPECT_TRUE(again[i].floorplan.name.empty());
  }
}

TEST(RunDesignPoint, FloorplanLoadTableOverridesReconfigCost) {
  // A point carrying a floorplan load table prices region reloads from
  // that table; regions absent from the table fall back to the caller's
  // cost function.
  const aaa::Project project = tiny_project();
  aaa::DesignPoint slow;
  slow.selection["m"] = "qpsk";
  aaa::DesignPoint fast = slow;
  slow.floorplan.name = "wide";
  slow.floorplan.region_load_ns["D1"] = 40'000'000;  // 40 ms per reload
  fast.floorplan.name = "narrow";
  fast.floorplan.region_load_ns["D1"] = 10'000;  // 10 us per reload
  const auto cost = [](const std::string&, const std::string&) { return 1_ms; };
  aaa::Adequation adequation(project.algorithm, project.architecture, project.durations);
  const auto slow_outcome = aaa::run_design_point(adequation, slow, cost);
  const auto fast_outcome = aaa::run_design_point(adequation, fast, cost);
  ASSERT_TRUE(slow_outcome.ok) << slow_outcome.error;
  ASSERT_TRUE(fast_outcome.ok) << fast_outcome.error;
  // Same schedule shape, different reload pricing: the 40 ms plan can
  // never beat the 10 us plan.
  EXPECT_GE(slow_outcome.makespan, fast_outcome.makespan);
}

TEST(RunDesignPoint, InfeasiblePointReportsErrorInsteadOfThrowing) {
  aaa::Project project = tiny_project();
  aaa::DesignPoint point;
  point.selection["m"] = "no_such_alternative";
  aaa::Adequation adequation(project.algorithm, project.architecture, project.durations);
  const auto outcome = aaa::run_design_point(
      adequation, point, [](const std::string&, const std::string&) { return 1_ms; });
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("no_such_alternative"), std::string::npos);
}

TEST(RunDesignPoint, ReusedAdequationMatchesFreshOnes) {
  // One instance scheduling a sequence of points must leave nothing of a
  // point's cost model to the next: with no floorplan and no cost
  // function the 4 ms default applies again.
  const aaa::Project project = tiny_project();
  std::vector<aaa::DesignPoint> points(4);
  points[0].floorplan = {"fast", {{"D1", 10'000}}};  // cheap reloads: m lands on D1
  points[2].floorplan = {"slow", {{"D1", 40'000'000}}};
  points[2].strategy = aaa::MappingStrategy::RoundRobin;
  points[3].selection["m"] = "qpsk";
  aaa::Adequation reused(project.algorithm, project.architecture, project.durations);
  for (const aaa::DesignPoint& point : points) {
    aaa::Adequation fresh(project.algorithm, project.architecture, project.durations);
    const auto want = aaa::run_design_point(fresh, point, {});
    const auto got = aaa::run_design_point(reused, point, {});
    ASSERT_TRUE(want.ok) << point.name() << ": " << want.error;
    ASSERT_TRUE(got.ok) << point.name() << ": " << got.error;
    EXPECT_EQ(got.makespan, want.makespan) << point.name();
    EXPECT_EQ(got.reconfig_exposed, want.reconfig_exposed) << point.name();
    EXPECT_EQ(got.reconfig_count, want.reconfig_count) << point.name();
  }
}

TEST(Adequation, ConcurrentRunsMatchSerialRuns) {
  // run() is const and reentrant: eight threads scheduling on one shared
  // instance, each run with its own cost table, reproduce the serial
  // schedules byte for byte. Under TSan this also checks that runs share
  // nothing writable.
  bench::GeneratorConfig cfg;
  cfg.n_ops = 300;
  cfg.width = 8;
  cfg.conditioned_every = 3;
  const aaa::AlgorithmGraph g = bench::generate_graph(cfg);
  const aaa::ArchitectureGraph arch = bench::bench_architecture(2, 2);
  const aaa::DurationTable durations = bench::bench_durations();
  const aaa::Adequation adequation(g, arch, durations);

  std::vector<aaa::AdequationOptions> runs;
  for (const auto strategy : {aaa::MappingStrategy::SynDExList, aaa::MappingStrategy::RoundRobin,
                              aaa::MappingStrategy::FirstFeasible})
    for (const bool prefetch : {true, false})
      for (const char* d1 : {"", "alt_a", "alt_b"}) {
        aaa::AdequationOptions options;
        options.strategy = strategy;
        options.prefetch = prefetch;
        if (*d1 != '\0') options.preloaded["D1"] = d1;
        const std::map<std::string, TimeNs> table = {
            {"D1", static_cast<TimeNs>(runs.size() + 1) * 100'000}, {"D2", 250'000}};
        options.reconfig_cost = [table](const std::string& region, const std::string&) {
          return table.at(region);
        };
        runs.push_back(std::move(options));
      }
  std::vector<std::string> serial;
  for (const aaa::AdequationOptions& options : runs)
    serial.push_back(adequation.run(options).to_csv());

  const std::size_t rounds = 8;
  std::vector<std::string> concurrent(runs.size() * rounds);
  util::parallel_for(8, concurrent.size(), [&](std::size_t i) {
    concurrent[i] = adequation.run(runs[i % runs.size()]).to_csv();
  });
  for (std::size_t i = 0; i < concurrent.size(); ++i)
    EXPECT_EQ(concurrent[i], serial[i % runs.size()]) << "run " << i % runs.size();
}

TEST(ParetoFront, KeepsOnlyUndominatedOutcomes) {
  std::vector<aaa::ExplorationOutcome> outcomes(4);
  outcomes[0] = {10'000, 0, 0, true, false, ""};      // best makespan
  outcomes[1] = {12'000, 0, 1, true, false, ""};      // dominated by 0
  outcomes[2] = {11'000, 0, 0, true, false, ""};      // dominated by 0
  outcomes[3] = {9'000, 5'000, 1, true, false, ""};   // faster but exposed: survives
  const auto front = aaa::pareto_front(outcomes);
  EXPECT_EQ(front, (std::vector<std::size_t>{3, 0}));  // sorted by makespan
}

TEST(ParetoFront, IdenticalOutcomesKeepEarliestIndex) {
  std::vector<aaa::ExplorationOutcome> outcomes(3);
  outcomes[0] = {10'000, 0, 0, true, false, ""};
  outcomes[1] = {10'000, 0, 0, true, false, ""};  // twin of 0: dropped
  outcomes[2] = {10'000, 0, 0, false, false, "boom"};  // failed: never on the front
  const auto front = aaa::pareto_front(outcomes);
  EXPECT_EQ(front, (std::vector<std::size_t>{0}));
}

TEST(DesignSpaceExplorer, RunsWholeSpaceAndFindsPareto) {
  const aaa::Project project = tiny_project();
  flow::ExplorerOptions options;
  options.jobs = 2;
  options.reconfig_cost = 1_ms;
  const flow::DesignSpaceExplorer explorer(
      project, aaa::ExplorationSpace::from_project(project), options);
  const flow::ExplorationReport report = explorer.run();

  EXPECT_EQ(report.points.size(), 36u);
  EXPECT_EQ(report.outcomes.size(), 36u);
  EXPECT_EQ(report.failed_points(), 0u);
  ASSERT_FALSE(report.pareto.empty());

  // The front's best point beats or ties every successful outcome.
  const auto& best = report.outcomes[report.pareto.front()];
  for (const auto& outcome : report.outcomes) EXPECT_LE(best.makespan, outcome.makespan);

  // A preloaded region with the selected module avoids every
  // reconfiguration: the front must contain a zero-exposure point.
  EXPECT_EQ(report.outcomes[report.pareto.front()].reconfig_exposed, 0);

  const std::string text = report.to_string();
  EXPECT_NE(text.find("pareto front:"), std::string::npos);
  EXPECT_NE(text.find("makespan"), std::string::npos);
}

TEST(DesignSpaceExplorer, ParallelRunIsByteIdenticalToSerial) {
  const aaa::Project project = tiny_project();
  const aaa::ExplorationSpace space = aaa::ExplorationSpace::from_project(project);

  flow::ExplorerOptions serial;
  serial.jobs = 1;
  serial.reconfig_cost = 1_ms;
  flow::ExplorerOptions parallel = serial;
  parallel.jobs = 8;

  const flow::ExplorationReport a = flow::DesignSpaceExplorer(project, space, serial).run();
  const flow::ExplorationReport b = flow::DesignSpaceExplorer(project, space, parallel).run();

  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_EQ(a.sweep.combined_report(), b.sweep.combined_report());
  EXPECT_EQ(a.pareto, b.pareto);
  EXPECT_EQ(a.sweep.recorder.metrics.to_json(), b.sweep.recorder.metrics.to_json());
}

TEST(DesignSpaceExplorer, StaticPruningRejectsWhatTheOracleRefuses) {
  const aaa::Project project = tiny_project();
  flow::ExplorerOptions options;
  options.jobs = 2;
  options.reconfig_cost = 1_ms;
  // An injected verifier standing in for pdr::verify: refuse everything.
  options.verifier = [](const aaa::ScheduleAnalysis&, const aaa::DesignPoint&) {
    return "synthetic hazard";
  };
  const flow::ExplorationReport report =
      flow::DesignSpaceExplorer(project, aaa::ExplorationSpace::from_project(project), options)
          .run();

  EXPECT_EQ(report.pruned_points(), 36u);  // every point statically rejected
  EXPECT_EQ(report.failed_points(), 0u);   // rejection is not failure
  EXPECT_TRUE(report.pareto.empty());      // nothing survived to simulate
  for (const auto& outcome : report.outcomes) {
    EXPECT_TRUE(outcome.rejected);
    EXPECT_NE(outcome.error.find("synthetic hazard"), std::string::npos);
  }
  const std::string text = report.to_string();
  EXPECT_NE(text.find("statically rejected by pdr::verify"), std::string::npos) << text;
  // The front denominator counts points that survived to simulation.
  EXPECT_NE(text.find("pareto front: 0 of 0"), std::string::npos) << text;
}

TEST(DesignSpaceExplorer, DefaultVerifierCertifiesEverySchedulerPoint) {
  // The adequation engine is correct by construction, so the real
  // verifier must prune nothing — and the surviving Pareto front must be
  // byte-identical to a run with pruning disabled.
  const aaa::Project project = tiny_project();
  const aaa::ExplorationSpace space = aaa::ExplorationSpace::from_project(project);
  flow::ExplorerOptions verified;
  verified.jobs = 2;
  verified.reconfig_cost = 1_ms;
  flow::ExplorerOptions unverified = verified;
  unverified.static_pruning = false;

  const flow::ExplorationReport a = flow::DesignSpaceExplorer(project, space, verified).run();
  const flow::ExplorationReport b = flow::DesignSpaceExplorer(project, space, unverified).run();

  EXPECT_EQ(a.pruned_points(), 0u);
  EXPECT_EQ(a.pareto, b.pareto);
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST(DesignSpaceExplorer, RefusesOversizedSpace) {
  const aaa::Project project = tiny_project();
  flow::ExplorerOptions options;
  options.max_points = 10;  // space has 36
  const flow::DesignSpaceExplorer explorer(
      project, aaa::ExplorationSpace::from_project(project), options);
  EXPECT_THROW(explorer.run(), pdr::Error);
}

TEST(DesignPoint, ToOptionsDropsEmptyPreloads) {
  aaa::DesignPoint point;
  point.preloaded["D1"] = "";
  point.preloaded["D2"] = "qpsk";
  point.selection["m"] = "qam16";
  const aaa::AdequationOptions options = point.to_options();
  EXPECT_EQ(options.preloaded.count("D1"), 0u);  // "" = empty region
  EXPECT_EQ(options.preloaded.at("D2"), "qpsk");
  EXPECT_EQ(options.selection.at("m"), "qam16");
}

}  // namespace
}  // namespace pdr
