#include <gtest/gtest.h>

#include "aaa/adequation.hpp"
#include "aaa/durations.hpp"
#include "aaa/macrocode.hpp"
#include "executive_builder.hpp"
#include "sim/event_queue.hpp"
#include "sim/executive_player.hpp"
#include "sim/timeline.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace pdr::sim {
namespace {

using namespace pdr::literals;

// --- event queue -------------------------------------------------------------------

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&](TimeNs) { order.push_back(3); });
  q.schedule(10, [&](TimeNs) { order.push_back(1); });
  q.schedule(20, [&](TimeNs) { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, SimultaneousEventsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule(7, [&order, i](TimeNs) { order.push_back(i); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// The EventQueue.SameTimestamp* family pins the documented tie-breaking
// invariant (event_queue.hpp): same-timestamp events pop in insertion
// order. The repo-wide seeded-determinism guarantee (and the scenario
// runner's serial-vs-parallel byte-identity) rests on it — do not weaken.

TEST(EventQueue, SameTimestampPopsInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  // Interleave two timestamps so the heap must order by (at, seq), not
  // just by insertion position.
  q.schedule(20, [&](TimeNs) { order.push_back(20); });
  q.schedule(10, [&](TimeNs) { order.push_back(100); });
  q.schedule(20, [&](TimeNs) { order.push_back(21); });
  q.schedule(10, [&](TimeNs) { order.push_back(101); });
  q.schedule(20, [&](TimeNs) { order.push_back(22); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{100, 101, 20, 21, 22}));
}

TEST(EventQueue, SameTimestampSelfScheduledRunsAfterAlreadyQueued) {
  EventQueue q;
  std::vector<std::string> order;
  q.schedule(10, [&](TimeNs now) {
    order.push_back("first");
    // Scheduled *at the current timestamp* while executing: runs after
    // everything already queued for t=10, in scheduling order.
    q.schedule(now, [&](TimeNs) { order.push_back("spawned-a"); });
    q.schedule(now, [&](TimeNs) { order.push_back("spawned-b"); });
  });
  q.schedule(10, [&](TimeNs) { order.push_back("second"); });
  q.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"first", "second", "spawned-a", "spawned-b"}));
  EXPECT_EQ(q.now(), 10);
}

TEST(EventQueue, SameTimestampStableAcrossLabeledAndUnlabeled) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(5, "labeled", [&](TimeNs) { order.push_back(0); });
  q.schedule(5, [&](TimeNs) { order.push_back(1); });
  q.schedule(5, "labeled-too", [&](TimeNs) { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule(10, [&](TimeNs now) {
    ++fired;
    q.schedule(now + 5, [&](TimeNs) { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 15);
}

TEST(EventQueue, RunUntilStopsEarly) {
  EventQueue q;
  int fired = 0;
  q.schedule(10, [&](TimeNs) { ++fired; });
  q.schedule(100, [&](TimeNs) { ++fired; });
  EXPECT_EQ(q.run(50), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, PastSchedulingRejected) {
  EventQueue q;
  q.schedule(10, [](TimeNs) {});
  q.run();
  EXPECT_THROW(q.schedule(5, [](TimeNs) {}), pdr::Error);
}

TEST(EventQueue, ScheduleInIsRelative) {
  EventQueue q;
  TimeNs seen = -1;
  q.schedule(10, [&](TimeNs) { q.schedule_in(7, [&](TimeNs now) { seen = now; }); });
  q.run();
  EXPECT_EQ(seen, 17);
}

// --- timeline --------------------------------------------------------------------

TEST(Timeline, BusyAndTotals) {
  Timeline t;
  t.add("F1", "a", SpanKind::Compute, 0, 10);
  t.add("F1", "b", SpanKind::Compute, 10, 30);
  t.add("D1", "r", SpanKind::Reconfig, 5, 25);
  t.add("D1", "s", SpanKind::Stall, 25, 30);
  EXPECT_EQ(t.horizon(), 30);
  EXPECT_EQ(t.busy().at("F1"), 30);
  EXPECT_EQ(t.busy().at("D1"), 20);  // stall excluded
  EXPECT_EQ(t.total(SpanKind::Reconfig), 20);
  EXPECT_EQ(t.total(SpanKind::Stall), 5);
}

TEST(Timeline, RejectsNegativeSpans) {
  Timeline t;
  EXPECT_THROW(t.add("x", "bad", SpanKind::Compute, 10, 5), pdr::Error);
}

TEST(Timeline, GanttAndCsv) {
  Timeline t;
  t.add("F1", "a", SpanKind::Compute, 0, 10);
  const std::string g = t.gantt(40);
  EXPECT_NE(g.find("F1"), std::string::npos);
  EXPECT_NE(g.find("#"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("resource,label,kind,start_ns,end_ns"), std::string::npos);
  EXPECT_NE(csv.find("F1,a,compute,0,10"), std::string::npos);
}

TEST(Timeline, EmptyGantt) {
  Timeline t;
  EXPECT_EQ(t.gantt(), "(empty timeline)\n");
}

TEST(Timeline, SvgRendersLanesAndSpans) {
  Timeline t;
  t.add("F1", "fft", SpanKind::Compute, 0, 1000);
  t.add("D1", "load qam16", SpanKind::Reconfig, 200, 800);
  t.add("SHB", "buf", SpanKind::Transfer, 100, 300);
  const std::string svg = t.to_svg(600);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  for (const char* name : {"F1", "D1", "SHB"})
    EXPECT_NE(svg.find(name), std::string::npos) << name;
  EXPECT_NE(svg.find("<title>load qam16 [reconfig]"), std::string::npos);
  // One rect per span.
  std::size_t rects = 0, pos = 0;
  while ((pos = svg.find("<rect", pos)) != std::string::npos) {
    ++rects;
    pos += 5;
  }
  EXPECT_EQ(rects, 3u);
  EXPECT_THROW(t.to_svg(10), pdr::Error);
}

// --- executive player -----------------------------------------------------------------

struct PlayerFixture {
  aaa::AlgorithmGraph algo;
  aaa::ArchitectureGraph arch;
  aaa::DurationTable durations;
  aaa::Schedule schedule;
  aaa::Executive executive;

  PlayerFixture() {
    algo.add_operation({"src", "bit_source", {}, aaa::OpClass::Sensor, {}});
    algo.add_compute("fft", "ifft", {{"n", 64}});
    algo.add_operation({"out", "interface_in_out", {}, aaa::OpClass::Actuator, {}});
    algo.add_dependency("src", "fft", 64);
    algo.add_dependency("fft", "out", 256);
    arch = aaa::make_sundance_architecture();
    durations = aaa::mccdma_durations();
    aaa::Adequation adequation(algo, arch, durations);
    adequation.pin("src", "DSP");  // force a DSP -> FPGA transfer
    schedule = adequation.run();
    executive = aaa::generate_executive(schedule, algo, arch);
  }
};

TEST(ExecutivePlayer, SingleIterationMatchesScheduleShape) {
  const PlayerFixture f;
  ExecutivePlayer player(f.executive, f.arch);
  const PlayResult r = player.run(1);
  EXPECT_EQ(r.iterations, 1);
  // One iteration of the executive replays the schedule's dependency
  // structure; its makespan matches the adequation's prediction.
  EXPECT_EQ(r.makespan, f.schedule.makespan);
}

TEST(ExecutivePlayer, ManyIterationsPipelineThroughput) {
  const PlayerFixture f;
  ExecutivePlayer player(f.executive, f.arch);
  const PlayResult r = player.run(50);
  EXPECT_EQ(r.iterations, 50);
  EXPECT_GT(r.makespan, f.schedule.makespan);
  // Steady-state period can't beat the busiest resource, nor exceed the
  // single-iteration makespan.
  EXPECT_LE(r.iteration_period, f.schedule.makespan);
  EXPECT_GT(r.iteration_period, 0);
}

TEST(ExecutivePlayer, TimelineRecordsAllKinds) {
  const PlayerFixture f;
  ExecutivePlayer player(f.executive, f.arch);
  const PlayResult r = player.run(3);
  EXPECT_GT(r.timeline.total(SpanKind::Compute), 0);
  EXPECT_GT(r.timeline.total(SpanKind::Transfer), 0);
}

TEST(EventQueue, LabeledEventsTraced) {
  EventQueue q;
  obs::Recorder recorder;
  const obs::Tracer& tracer = recorder.tracer;
  obs::MetricsRegistry& metrics = recorder.metrics;
  q.set_sinks(obs::Sinks(recorder));
  int fired = 0;
  q.schedule(10, "tick", [&](TimeNs) { ++fired; });
  q.schedule_in(20, "tock", [&](TimeNs) { ++fired; });
  q.schedule(30, [&](TimeNs) { ++fired; });  // unlabeled still counts
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(tracer.count("sim_event"), 3u);
  EXPECT_DOUBLE_EQ(metrics.counter("sim.events_executed").value(), 3.0);
  // Labels become the instant-event names, in execution order.
  EXPECT_EQ(tracer.events()[0].name, "tick");
  EXPECT_EQ(tracer.events()[1].name, "tock");
  EXPECT_EQ(tracer.events()[2].name, "event");
}

TEST(Timeline, ExportToTracerKeepsKindsAndTimes) {
  Timeline tl;
  tl.add("D1", "work", SpanKind::Compute, 0, 100);
  tl.add("bus", "move", SpanKind::Transfer, 50, 80);
  obs::Tracer tracer;
  tl.export_to(tracer, "exec_");
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.total_duration(std::string("exec_") + span_kind_name(SpanKind::Compute)), 100);
  EXPECT_EQ(tracer.total_duration(std::string("exec_") + span_kind_name(SpanKind::Transfer)), 30);
  EXPECT_EQ(tracer.events()[0].track, "D1");
  EXPECT_EQ(tracer.events()[1].track, "bus");
}

TEST(ExecutivePlayer, ObservabilityExportsRunSummary) {
  const PlayerFixture f;
  ExecutivePlayer player(f.executive, f.arch);
  obs::Recorder recorder;
  const obs::Tracer& tracer = recorder.tracer;
  obs::MetricsRegistry& metrics = recorder.metrics;
  player.set_sinks(obs::Sinks(recorder));
  const PlayResult r = player.run(2);
  // Every timeline span got replayed into the tracer under exec_*.
  EXPECT_EQ(tracer.size(), r.timeline.spans().size());
  EXPECT_DOUBLE_EQ(metrics.counter("sim.player.runs").value(), 1.0);
  EXPECT_DOUBLE_EQ(metrics.gauge("sim.player.makespan_ns").value(),
                   static_cast<double>(r.makespan));
}

TEST(ExecutivePlayer, ReconfigInstructionsCostAndCount) {
  // Build an executive whose region program contains a Reconfig.
  aaa::AlgorithmGraph algo;
  algo.add_operation({"src", "bit_source", {}, aaa::OpClass::Sensor, {}});
  algo.add_conditioned("mod", {{"qpsk", "qpsk_mapper", {}}, {"qam16", "qam16_mapper", {}}});
  algo.add_dependency("src", "mod", 16);
  aaa::ArchitectureGraph arch = aaa::make_sundance_architecture();
  const aaa::DurationTable durations = aaa::mccdma_durations();
  aaa::Adequation adequation(algo, arch, durations);
  adequation.pin("mod", "D1");
  aaa::AdequationOptions options;
  options.reconfig_cost = [](const std::string&, const std::string&) { return 100_us; };
  const aaa::Schedule schedule = adequation.run(options);
  const aaa::Executive executive = aaa::generate_executive(schedule, algo, arch);

  ExecutivePlayer player(executive, arch);
  player.set_reconfig_cost([](const std::string&, const std::string&) { return 100_us; });
  const PlayResult r = player.run(2);
  EXPECT_EQ(r.reconfigs, 2);  // one per loop iteration
  EXPECT_EQ(r.timeline.total(SpanKind::Reconfig), 200_us);
}

/// Fixture with a Reconfig-bearing executive for variant-selection tests.
struct ConditionedFixture {
  aaa::AlgorithmGraph algo;
  aaa::ArchitectureGraph arch;
  aaa::Executive executive;

  ConditionedFixture() {
    algo.add_operation({"src", "bit_source", {}, aaa::OpClass::Sensor, {}});
    algo.add_conditioned("mod", {{"qpsk", "qpsk_mapper", {}}, {"qam16", "qam16_mapper", {}}});
    algo.add_dependency("src", "mod", 16);
    arch = aaa::make_sundance_architecture();
    const aaa::DurationTable durations = aaa::mccdma_durations();
    aaa::Adequation adequation(algo, arch, durations);
    adequation.pin("mod", "D1");
    aaa::AdequationOptions options;
    options.reconfig_cost = [](const std::string&, const std::string&) { return 100_us; };
    const aaa::Schedule schedule = adequation.run(options);
    executive = aaa::generate_executive(schedule, algo, arch);
  }
};

TEST(ExecutivePlayer, ConstantSelectionPaysOneReconfig) {
  const ConditionedFixture f;
  ExecutivePlayer player(f.executive, f.arch);
  player.set_reconfig_cost([](const std::string&, const std::string&) { return 100_us; });
  player.set_variant_selector(
      [](int, const std::string&, const std::string&) { return std::string("qpsk"); });
  const PlayResult r = player.run(10);
  EXPECT_EQ(r.reconfigs, 1);          // first iteration loads qpsk
  EXPECT_EQ(r.reconfigs_skipped, 9);  // sticky thereafter
}

TEST(ExecutivePlayer, AlternatingSelectionPaysEveryIteration) {
  const ConditionedFixture f;
  ExecutivePlayer player(f.executive, f.arch);
  player.set_reconfig_cost([](const std::string&, const std::string&) { return 100_us; });
  player.set_variant_selector([](int iteration, const std::string&, const std::string&) {
    return iteration % 2 == 0 ? std::string("qpsk") : std::string("qam16");
  });
  const PlayResult r = player.run(10);
  EXPECT_EQ(r.reconfigs, 10);
  EXPECT_EQ(r.reconfigs_skipped, 0);
  EXPECT_EQ(r.timeline.total(SpanKind::Reconfig), 10 * 100_us);
}

TEST(ExecutivePlayer, SurvivesFailedReconfigs) {
  const ConditionedFixture f;
  ExecutivePlayer player(f.executive, f.arch);
  int calls = 0;
  player.set_reconfig_cost([&calls](const std::string&, const std::string&) -> TimeNs {
    if (++calls == 1) raise("test", "injected load failure");
    return 100_us;
  });
  player.set_variant_selector([](int iteration, const std::string&, const std::string&) {
    return iteration % 2 == 0 ? std::string("qpsk") : std::string("qam16");
  });
  player.set_survive_reconfig_failures(true);
  const PlayResult r = player.run(4);
  // Iteration 0's load fails and is absorbed; the region stays empty, so the
  // three remaining iterations each pay a real reconfiguration.
  EXPECT_EQ(r.reconfigs_failed, 1);
  EXPECT_EQ(r.reconfigs, 3);
  EXPECT_EQ(r.reconfigs_skipped, 0);
  EXPECT_EQ(r.timeline.total(SpanKind::Reconfig), 3 * 100_us);
}

TEST(ExecutivePlayer, FailedReconfigThrowsByDefault) {
  const ConditionedFixture f;
  ExecutivePlayer player(f.executive, f.arch);
  player.set_reconfig_cost([](const std::string&, const std::string&) -> TimeNs {
    raise("test", "injected load failure");
  });
  EXPECT_THROW(player.run(1), pdr::Error);
}

TEST(ExecutivePlayer, StickySelectionBeatsStaticReplay) {
  // Static replay reloads the scheduled module every iteration; sticky
  // runtime selection amortizes it — the run is strictly shorter.
  const ConditionedFixture f;
  ExecutivePlayer static_player(f.executive, f.arch);
  static_player.set_reconfig_cost([](const std::string&, const std::string&) { return 100_us; });
  const PlayResult static_run = static_player.run(10);

  ExecutivePlayer sticky_player(f.executive, f.arch);
  sticky_player.set_reconfig_cost([](const std::string&, const std::string&) { return 100_us; });
  sticky_player.set_variant_selector(
      [](int, const std::string&, const std::string& scheduled) { return scheduled; });
  const PlayResult sticky_run = sticky_player.run(10);

  EXPECT_EQ(static_run.reconfigs, 10);
  EXPECT_EQ(sticky_run.reconfigs, 1);
  EXPECT_LT(sticky_run.makespan, static_run.makespan);
}

TEST(ExecutivePlayer, PeriodRespectsScheduleLowerBound) {
  const PlayerFixture f;
  ExecutivePlayer player(f.executive, f.arch);
  const PlayResult r = player.run(60);
  EXPECT_GE(r.iteration_period, f.schedule.period_lower_bound());
  EXPECT_LE(r.iteration_period, f.schedule.makespan);
}

TEST(ExecutivePlayer, DeadlockDetected) {
  // A hand-built executive where the operator waits for a buffer nobody
  // sends.
  const aaa::Executive executive =
      ExecutiveBuilder().program("F1").instr(aaa::MacroOp::Recv, "ghost_buffer").build();

  const aaa::ArchitectureGraph arch = aaa::make_sundance_architecture();
  ExecutivePlayer player(executive, arch);
  try {
    player.run(1);
    FAIL() << "expected deadlock";
  } catch (const pdr::Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("ghost_buffer"), std::string::npos);
  }
}

TEST(ExecutivePlayer, RejectsNonPositiveIterations) {
  const PlayerFixture f;
  ExecutivePlayer player(f.executive, f.arch);
  EXPECT_THROW(player.run(0), pdr::Error);
}

class PlayerIterationsTest : public ::testing::TestWithParam<int> {};

TEST_P(PlayerIterationsTest, MakespanMonotoneInIterations) {
  const PlayerFixture f;
  ExecutivePlayer player(f.executive, f.arch);
  const PlayResult a = player.run(GetParam());
  const PlayResult b = player.run(GetParam() + 1);
  EXPECT_LT(a.makespan, b.makespan);
}

INSTANTIATE_TEST_SUITE_P(Iterations, PlayerIterationsTest, ::testing::Values(1, 2, 5, 10));

}  // namespace
}  // namespace pdr::sim
