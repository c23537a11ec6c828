#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "aaa/adequation.hpp"
#include "aaa/durations.hpp"
#include "aaa/schedule_analysis.hpp"
#include "bench/rescan_reference.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace pdr::aaa {
namespace {

using namespace pdr::literals;

DurationTable simple_durations() {
  DurationTable t;
  for (const char* kind : {"src", "work", "alt_a", "alt_b", "sink"}) {
    t.set(kind, OperatorKind::Processor, 10'000);
    t.set(kind, OperatorKind::FpgaStatic, 2'000);
    t.set(kind, OperatorKind::FpgaRegion, 2'000);
  }
  return t;
}

ArchitectureGraph small_arch() {
  ArchitectureGraph arch;
  arch.add_operator(OperatorNode{"CPU", OperatorKind::Processor, 1.0, "", ""});
  arch.add_operator(OperatorNode{"F1", OperatorKind::FpgaStatic, 1.0, "XC2V2000", ""});
  arch.add_operator(OperatorNode{"D1", OperatorKind::FpgaRegion, 1.0, "XC2V2000", "D1"});
  arch.add_medium(MediumNode{"BUS", 100e6, 100});
  arch.connect("CPU", "BUS");
  arch.connect("F1", "BUS");
  arch.connect("D1", "BUS");
  return arch;
}

AlgorithmGraph chain() {
  AlgorithmGraph g;
  g.add_operation({"a", "src", {}, OpClass::Sensor, {}});
  g.add_compute("b", "work");
  g.add_operation({"c", "sink", {}, OpClass::Actuator, {}});
  g.add_dependency("a", "b", 100);
  g.add_dependency("b", "c", 100);
  return g;
}

AlgorithmGraph conditioned_chain() {
  AlgorithmGraph g;
  g.add_operation({"a", "src", {}, OpClass::Sensor, {}});
  g.add_conditioned("m", {{"alt_a", "alt_a", {}}, {"alt_b", "alt_b", {}}});
  g.add_operation({"c", "sink", {}, OpClass::Actuator, {}});
  g.add_dependency("a", "m", 100);
  g.add_dependency("m", "c", 100);
  return g;
}

TEST(Adequation, SchedulesChainOnFastestOperator) {
  const AlgorithmGraph g = chain();
  const ArchitectureGraph arch = small_arch();
  const DurationTable t = simple_durations();
  const Schedule s = Adequation(g, arch, t).run();
  validate_schedule(s, g, arch);
  // Everything lands on F1 (fast, no transfers needed); regions excluded
  // for non-conditioned ops.
  for (const auto sym : s.placement) {
    if (sym != util::kNoSymbol) {
      EXPECT_EQ(s.name(sym), "F1");
    }
  }
  EXPECT_EQ(s.makespan, 6'000);
  EXPECT_EQ(s.reconfig_count, 0);
}

TEST(Adequation, DeterministicAcrossRuns) {
  const AlgorithmGraph g = chain();
  const ArchitectureGraph arch = small_arch();
  const DurationTable t = simple_durations();
  Adequation adequation(g, arch, t);
  const Schedule s1 = adequation.run();
  const Schedule s2 = adequation.run();
  EXPECT_EQ(s1.makespan, s2.makespan);
  EXPECT_EQ(s1.size(), s2.size());
}

TEST(Adequation, PinForcesOperatorAndTransfers) {
  const AlgorithmGraph g = chain();
  const ArchitectureGraph arch = small_arch();
  const DurationTable t = simple_durations();
  Adequation adequation(g, arch, t);
  adequation.pin("b", "CPU");
  const Schedule s = adequation.run();
  validate_schedule(s, g, arch);
  EXPECT_EQ(s.placement_name(g.by_name("b")), "CPU");
  // a on F1, b on CPU -> at least two transfers over BUS.
  int transfers = 0;
  for (std::size_t i = 0; i < s.size(); ++i)
    if (s.kind(i) == ItemKind::Transfer) ++transfers;
  EXPECT_GE(transfers, 2);
}

TEST(Adequation, ConditionedVertexOnRegionInsertsReconfig) {
  const AlgorithmGraph g = conditioned_chain();
  const ArchitectureGraph arch = small_arch();
  const DurationTable t = simple_durations();
  Adequation adequation(g, arch, t);
  adequation.pin("m", "D1");
  AdequationOptions options;
  options.reconfig_cost = [](const std::string&, const std::string&) { return 1_ms; };
  const Schedule s = adequation.run(options);
  validate_schedule(s, g, arch);
  EXPECT_EQ(s.reconfig_count, 1);
  EXPECT_EQ(s.reconfig_total, 1_ms);
  // The region item loads the first alternative by default.
  bool found = false;
  for (std::size_t i = 0; i < s.size(); ++i)
    if (s.kind(i) == ItemKind::Reconfig) {
      EXPECT_EQ(s.module_name(i), "alt_a");
      found = true;
    }
  EXPECT_TRUE(found);
}

TEST(Adequation, SelectionPicksAlternative) {
  const AlgorithmGraph g = conditioned_chain();
  const ArchitectureGraph arch = small_arch();
  const DurationTable t = simple_durations();
  Adequation adequation(g, arch, t);
  adequation.pin("m", "D1");
  AdequationOptions options;
  options.selection["m"] = "alt_b";
  const Schedule s = adequation.run(options);
  for (std::size_t i = 0; i < s.size(); ++i)
    if (s.kind(i) == ItemKind::Compute && s.variant(i) != "") {
      EXPECT_EQ(s.variant(i), "alt_b");
    }
}

TEST(Adequation, UnknownSelectionThrows) {
  const AlgorithmGraph g = conditioned_chain();
  const ArchitectureGraph arch = small_arch();
  const DurationTable t = simple_durations();
  Adequation adequation(g, arch, t);
  adequation.pin("m", "D1");
  AdequationOptions options;
  options.selection["m"] = "alt_z";
  EXPECT_THROW(adequation.run(options), pdr::Error);
}

TEST(Adequation, PreloadedRegionSkipsReconfig) {
  const AlgorithmGraph g = conditioned_chain();
  const ArchitectureGraph arch = small_arch();
  const DurationTable t = simple_durations();
  Adequation adequation(g, arch, t);
  adequation.pin("m", "D1");
  AdequationOptions options;
  options.preloaded["D1"] = "alt_a";
  const Schedule s = adequation.run(options);
  validate_schedule(s, g, arch);
  EXPECT_EQ(s.reconfig_count, 0);
}

TEST(Adequation, PrefetchHoistsReconfigBeforeDataReady) {
  const AlgorithmGraph g = conditioned_chain();
  const ArchitectureGraph arch = small_arch();
  const DurationTable t = simple_durations();
  Adequation adequation(g, arch, t);
  adequation.pin("m", "D1");

  AdequationOptions with;
  with.reconfig_cost = [](const std::string&, const std::string&) { return 1_ms; };
  with.prefetch = true;
  AdequationOptions without = with;
  without.prefetch = false;
  const Schedule sp = adequation.run(with);
  const Schedule sn = adequation.run(without);
  validate_schedule(sp, g, arch);
  validate_schedule(sn, g, arch);

  // Prefetched reconfiguration starts at t=0 (region and port idle);
  // on-demand starts only once the input data arrived.
  TimeNs prefetch_start = -1, demand_start = -1;
  for (std::size_t i = 0; i < sp.size(); ++i)
    if (sp.kind(i) == ItemKind::Reconfig) prefetch_start = sp.start(i);
  for (std::size_t i = 0; i < sn.size(); ++i)
    if (sn.kind(i) == ItemKind::Reconfig) demand_start = sn.start(i);
  EXPECT_EQ(prefetch_start, 0);
  EXPECT_GT(demand_start, 0);
  EXPECT_LE(sp.makespan, sn.makespan);
  EXPECT_LT(sp.reconfig_exposed, sn.reconfig_exposed + 1);
}

TEST(Adequation, InfeasibleOperationThrows) {
  AlgorithmGraph g;
  g.add_compute("exotic", "quantum_op");
  const ArchitectureGraph arch = small_arch();
  const DurationTable t = simple_durations();
  EXPECT_THROW(Adequation(g, arch, t).run(), pdr::Error);
}

TEST(Adequation, PinUnknownNamesThrow) {
  const AlgorithmGraph g = chain();
  const ArchitectureGraph arch = small_arch();
  const DurationTable t = simple_durations();
  Adequation adequation(g, arch, t);
  EXPECT_THROW(adequation.pin("nope", "F1"), pdr::Error);
  EXPECT_THROW(adequation.pin("b", "nope"), pdr::Error);
}

TEST(Adequation, ApplyConstraintsPinsConditionedVertices) {
  AlgorithmGraph g;
  g.add_operation({"a", "src", {}, OpClass::Sensor, {}});
  g.add_conditioned("m", {{"qpsk", "alt_a", {}}, {"qam16", "alt_b", {}}});
  g.add_dependency("a", "m", 10);
  const ArchitectureGraph arch = small_arch();
  const DurationTable t = simple_durations();

  const ConstraintSet cset = parse_constraints(
      "region D1 { width 2 }\n"
      "dynamic qpsk { region D1\n kind qpsk_mapper }\n"
      "dynamic qam16 { region D1\n kind qam16_mapper }\n");
  Adequation adequation(g, arch, t);
  adequation.apply_constraints(cset);
  const Schedule s = adequation.run();
  EXPECT_EQ(s.placement_name(g.by_name("m")), "D1");
}

TEST(Schedule, CsvExportListsEveryItem) {
  const AlgorithmGraph g = chain();
  const ArchitectureGraph arch = small_arch();
  const DurationTable t = simple_durations();
  const Schedule s = Adequation(g, arch, t).run();
  const std::string csv = s.to_csv();
  EXPECT_NE(csv.find("kind,label,resource,start_ns,end_ns,variant,module"), std::string::npos);
  // One line per item plus the header.
  EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
            s.size() + 1);
  EXPECT_NE(csv.find("compute,b,F1"), std::string::npos);
}

TEST(Schedule, UtilizationAndResourceQueries) {
  const AlgorithmGraph g = chain();
  const ArchitectureGraph arch = small_arch();
  const DurationTable t = simple_durations();
  const Schedule s = Adequation(g, arch, t).run();
  EXPECT_EQ(ScheduleAnalysis(s, g, arch).timeline(s.symbols.find("F1")).size(), 3u);
  EXPECT_NEAR(s.utilization("F1"), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.utilization("CPU"), 0.0);
  EXPECT_NE(s.to_string().find("makespan"), std::string::npos);
  EXPECT_NE(s.gantt().find("F1"), std::string::npos);
}

TEST(ValidateSchedule, CatchesResourceOverlap) {
  Schedule s;
  ScheduledItem x;
  x.kind = ItemKind::Compute;
  x.label = "x";
  x.resource = "F1";
  x.start = 0;
  x.end = 10;
  x.op = 0;
  ScheduledItem y = x;
  y.label = "y";
  y.start = 5;
  y.end = 15;
  y.op = 1;
  s.push_item(x);
  s.push_item(y);

  AlgorithmGraph g;
  g.add_compute("x", "work");
  g.add_compute("y", "work");
  const ArchitectureGraph arch = small_arch();
  EXPECT_THROW(validate_schedule(s, g, arch), pdr::Error);
}

TEST(Adequation, BaselineStrategiesScheduleValidly) {
  const AlgorithmGraph g = chain();
  const ArchitectureGraph arch = small_arch();
  const DurationTable t = simple_durations();
  const Adequation adequation(g, arch, t);
  for (const auto strategy :
       {MappingStrategy::SynDExList, MappingStrategy::RoundRobin, MappingStrategy::FirstFeasible}) {
    AdequationOptions options;
    options.strategy = strategy;
    const Schedule s = adequation.run(options);
    validate_schedule(s, g, arch);
    EXPECT_EQ(s.placement_count(), g.size()) << mapping_strategy_name(strategy);
  }
}

TEST(Adequation, HeuristicBeatsRoundRobinOnWideGraph) {
  // A wide graph with expensive transfers: the SynDEx heuristic clusters
  // work on the fast FPGA; round-robin scatters it across the slow CPU
  // too, paying both slow compute and bus transfers.
  AlgorithmGraph g;
  g.add_operation({"s", "src", {}, OpClass::Sensor, {}});
  for (int i = 0; i < 8; ++i) {
    const std::string name = strprintf("w%d", i);
    g.add_compute(name, "work");
    g.add_dependency("s", name, 4096);
  }
  const ArchitectureGraph arch = small_arch();
  const DurationTable t = simple_durations();
  const Adequation adequation(g, arch, t);

  AdequationOptions syndex;
  AdequationOptions naive;
  naive.strategy = MappingStrategy::RoundRobin;
  const Schedule good = adequation.run(syndex);
  const Schedule bad = adequation.run(naive);
  validate_schedule(good, g, arch);
  validate_schedule(bad, g, arch);
  EXPECT_LT(good.makespan, bad.makespan);
}

TEST(Adequation, StrategyNames) {
  EXPECT_STREQ(mapping_strategy_name(MappingStrategy::SynDExList), "syndex_list");
  EXPECT_STREQ(mapping_strategy_name(MappingStrategy::RoundRobin), "round_robin");
  EXPECT_STREQ(mapping_strategy_name(MappingStrategy::FirstFeasible), "first_feasible");
}

TEST(Adequation, SelectionKindDrivesFeasibility) {
  // The selected alternative's kind, not the first alternative's, decides
  // operator feasibility. A's kind runs only on the CPU, B's only on F1:
  // selecting B must land on F1 (the pre-fix candidate filter checked
  // support for A's kind and then blew up looking B's duration up on CPU).
  AlgorithmGraph g;
  g.add_operation({"a", "src", {}, OpClass::Sensor, {}});
  g.add_conditioned("m", {{"A", "ka", {}}, {"B", "kb", {}}});
  g.add_dependency("a", "m", 100);

  DurationTable t;
  t.set("src", OperatorKind::FpgaStatic, 2'000);
  t.set("ka", OperatorKind::Processor, 10'000);
  t.set("kb", OperatorKind::FpgaStatic, 2'000);

  const ArchitectureGraph arch = small_arch();
  AdequationOptions options;
  options.selection["m"] = "B";
  const Schedule s = Adequation(g, arch, t).run(options);
  validate_schedule(s, g, arch);
  EXPECT_EQ(s.placement_name(g.by_name("m")), "F1");

  options.selection["m"] = "A";
  const Schedule sa = Adequation(g, arch, t).run(options);
  validate_schedule(sa, g, arch);
  EXPECT_EQ(sa.placement_name(g.by_name("m")), "CPU");
}

TEST(Adequation, SharedMediumEstimateMatchesCommitAndFlipsChoice) {
  // p1 and p2 run sequentially on F1 (finish 1/2 us); join j's two
  // in-edges each need 10 us on the shared BUS when j lands on the CPU.
  // The pre-fix estimator let both transfers start at the bus's committed
  // free time, predicting CPU at 17 us and picking it over F1's 22 us —
  // the committed CPU schedule actually ends at 26 us. The transactional
  // estimator reserves the bus across the op's own in-edges, so the
  // estimate is 26 us and F1 wins.
  AlgorithmGraph g;
  g.add_operation({"p1", "src", {}, OpClass::Sensor, {}});
  g.add_operation({"p2", "src", {}, OpClass::Sensor, {}});
  g.add_operation({"j", "join", {}, OpClass::Actuator, {}});
  g.add_dependency("p1", "j", 1'000);
  g.add_dependency("p2", "j", 1'000);

  DurationTable t;
  t.set("src", OperatorKind::FpgaStatic, 1'000);
  t.set("join", OperatorKind::Processor, 5'000);
  t.set("join", OperatorKind::FpgaStatic, 20'000);

  ArchitectureGraph arch;
  arch.add_operator(OperatorNode{"CPU", OperatorKind::Processor, 1.0, "", ""});
  arch.add_operator(OperatorNode{"F1", OperatorKind::FpgaStatic, 1.0, "XC2V2000", ""});
  arch.add_medium(MediumNode{"BUS", 100e6, 0});
  arch.connect("CPU", "BUS");
  arch.connect("F1", "BUS");

  std::vector<CandidateEval> evals;
  AdequationOptions options;
  options.eval_log = &evals;
  const Schedule s = Adequation(g, arch, t).run(options);
  validate_schedule(s, g, arch);
  EXPECT_EQ(s.placement_name(g.by_name("j")), "F1");
  EXPECT_EQ(s.makespan, 22'000);

  // The rejected CPU estimate accounts for the serialized bus.
  bool saw_cpu = false;
  for (const auto& ev : evals)
    if (ev.op == g.by_name("j") && ev.operator_name == "CPU") {
      EXPECT_EQ(ev.predicted_end, 26'000);
      saw_cpu = true;
    }
  EXPECT_TRUE(saw_cpu);

  // Estimates are transactional: every committed candidate matches an
  // earlier non-commit estimate for the same (op, operator) pair exactly,
  // and matches the compute item's actual end.
  for (const auto& ev : evals) {
    if (!ev.committed) continue;
    bool estimated = false;
    for (const auto& prior : evals)
      if (!prior.committed && prior.op == ev.op && prior.operator_name == ev.operator_name) {
        EXPECT_EQ(prior.predicted_end, ev.predicted_end);
        estimated = true;
      }
    EXPECT_TRUE(estimated);
    for (std::size_t i = 0; i < s.size(); ++i)
      if (s.kind(i) == ItemKind::Compute && s.op(i) == ev.op) {
        EXPECT_EQ(s.end(i), ev.predicted_end);
      }
  }
}

TEST(Schedule, GanttRendersZeroDurationItems) {
  Schedule s;
  ScheduledItem pulse;
  pulse.kind = ItemKind::Compute;
  pulse.label = "pulse";
  pulse.resource = "CPU";
  pulse.start = 5'000;
  pulse.end = 5'000;  // zero duration
  ScheduledItem work;
  work.kind = ItemKind::Compute;
  work.label = "work";
  work.resource = "F1";
  work.start = 0;
  work.end = 10'000;
  s.push_item(work);
  s.push_item(pulse);
  s.makespan = 10'000;

  const std::string chart = s.gantt();
  const std::size_t line_start = chart.find("CPU");
  ASSERT_NE(line_start, std::string::npos);
  const std::size_t line_end = chart.find('\n', line_start);
  // Zero-duration items still paint one mark cell.
  EXPECT_NE(chart.substr(line_start, line_end - line_start).find('#'), std::string::npos);
}

TEST(ValidateSchedule, MultiEdgeTransfersNeedOneChainPerEdge) {
  // Two parallel a->b edges with the same payload: one transfer item must
  // not validate both (the pre-fix matcher keyed on (src,dst) names and
  // let it).
  AlgorithmGraph g;
  g.add_operation({"a", "src", {}, OpClass::Sensor, {}});
  g.add_operation({"b", "sink", {}, OpClass::Actuator, {}});
  g.add_dependency("a", "b", 100);
  g.add_dependency("a", "b", 100);
  const ArchitectureGraph arch = small_arch();

  ScheduledItem ca;
  ca.kind = ItemKind::Compute;
  ca.label = "a";
  ca.resource = "F1";
  ca.start = 0;
  ca.end = 1'000;
  ca.op = g.by_name("a");
  ScheduledItem cb = ca;
  cb.label = "b";
  cb.resource = "CPU";
  cb.start = 4'000;
  cb.end = 5'000;
  cb.op = g.by_name("b");
  ScheduledItem t1;
  t1.kind = ItemKind::Transfer;
  t1.label = "a->b";
  t1.resource = "BUS";
  t1.start = 1'000;
  t1.end = 2'000;
  t1.src = "a";
  t1.dst = "b";
  t1.bytes = 100;  // edge defaults to kNoEdge: the (src,dst,bytes) fallback

  Schedule missing;
  for (const auto& it : {ca, t1, cb}) missing.push_item(it);
  EXPECT_THROW(validate_schedule(missing, g, arch), pdr::Error);

  ScheduledItem t2 = t1;
  t2.start = 2'000;
  t2.end = 3'000;
  Schedule complete;
  for (const auto& it : {ca, t1, t2, cb}) complete.push_item(it);
  EXPECT_NO_THROW(validate_schedule(complete, g, arch));
}

TEST(Adequation, ParallelEdgesScheduleOneTransferEach) {
  AlgorithmGraph g;
  g.add_operation({"a", "src", {}, OpClass::Sensor, {}});
  g.add_operation({"b", "sink", {}, OpClass::Actuator, {}});
  g.add_dependency("a", "b", 100);
  g.add_dependency("a", "b", 200);
  const ArchitectureGraph arch = small_arch();
  const DurationTable t = simple_durations();
  Adequation adequation(g, arch, t);
  adequation.pin("a", "F1");
  adequation.pin("b", "CPU");
  const Schedule s = adequation.run();
  validate_schedule(s, g, arch);

  std::set<graph::EdgeId> edges;
  for (std::size_t i = 0; i < s.size(); ++i)
    if (s.kind(i) == ItemKind::Transfer) edges.insert(s.edge(i));
  EXPECT_EQ(edges.size(), 2u);  // distinct edge ids, one chain per edge
  EXPECT_EQ(edges.count(graph::kNoEdge), 0u);
}

TEST(Adequation, EnginesProduceByteIdenticalSchedules) {
  // The indexed ready-queue is an index, not a heuristic change: across
  // strategies it must reproduce the rescanning reference exactly.
  Rng rng(99);
  AlgorithmGraph g;
  const int layers = 5;
  const int per_layer = 4;
  std::vector<std::vector<std::string>> names(layers);
  for (int l = 0; l < layers; ++l)
    for (int i = 0; i < per_layer; ++i) {
      const std::string name = "op_" + std::to_string(l) + "_" + std::to_string(i);
      names[l].push_back(name);
      if (l == 0)
        g.add_operation({name, "src", {}, OpClass::Sensor, {}});
      else
        g.add_compute(name, "work");
    }
  for (int l = 1; l < layers; ++l)
    for (int i = 0; i < per_layer; ++i)
      g.add_dependency(names[l - 1][static_cast<std::size_t>(rng.uniform_int(0, per_layer - 1))],
                       names[l][static_cast<std::size_t>(i)],
                       static_cast<Bytes>(rng.uniform_int(16, 256)));

  const ArchitectureGraph arch = small_arch();
  const DurationTable t = simple_durations();
  const Adequation adequation(g, arch, t);
  for (const auto strategy :
       {MappingStrategy::SynDExList, MappingStrategy::RoundRobin, MappingStrategy::FirstFeasible}) {
    AdequationOptions options;
    options.strategy = strategy;
    EXPECT_EQ(adequation.run(options).to_csv(),
              bench::schedule_rescan_reference(adequation, options).to_csv())
        << mapping_strategy_name(strategy);
  }
}

TEST(Adequation, PinRejectsAMedium) {
  const AlgorithmGraph g = chain();
  const ArchitectureGraph arch = small_arch();
  const DurationTable t = simple_durations();
  Adequation adequation(g, arch, t);
  EXPECT_THROW(adequation.pin("b", "BUS"), pdr::Error);
  EXPECT_THROW(adequation.pin("b", "NOPE"), pdr::Error);
  EXPECT_THROW(adequation.pin("nope", "CPU"), pdr::Error);
  adequation.pin("b", "CPU");
  EXPECT_EQ(adequation.run().placement_name(g.by_name("b")), "CPU");
}

TEST(Adequation, RunRefusesAProblemEditedAfterConstruction) {
  // An Adequation snapshots its problem at construction. Editing the
  // graph or the duration table afterwards makes run() throw (its tables
  // would index a graph that no longer exists); a fresh instance
  // schedules the edited problem.
  AlgorithmGraph g = chain();
  ArchitectureGraph arch = small_arch();
  DurationTable t = simple_durations();
  const Adequation before(g, arch, t);
  const std::string first = before.run().to_csv();
  EXPECT_EQ(before.run().to_csv(), first);  // repeat runs are identical

  g.add_compute("d", "work");
  g.add_dependency("b", "d", 64);
  EXPECT_THROW(before.run(), pdr::Error);
  const Adequation after_graph(g, arch, t);
  const std::string mutated = after_graph.run().to_csv();
  EXPECT_NE(mutated.find(",d,"), std::string::npos);

  t.set("work", OperatorKind::FpgaStatic, 9'000'000);
  EXPECT_THROW(after_graph.run(), pdr::Error);
  const Adequation after_table(g, arch, t);
  EXPECT_EQ(after_table.run().to_csv(), Adequation(g, arch, t).run().to_csv());
  EXPECT_NE(after_table.run().to_csv(), mutated);

  arch.add_medium(MediumNode{"SPARE", 1e6, 0});
  arch.connect("CPU", "SPARE");
  EXPECT_THROW(after_table.run(), pdr::Error);
  EXPECT_NO_THROW(Adequation(g, arch, t).run());
}

/// Property: random layered DAGs on the small platform always produce
/// valid schedules; makespan is at least the critical path of the fastest
/// operator.
class RandomAdequationTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomAdequationTest, RandomDagSchedulesValidly) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 77 + 5);
  AlgorithmGraph g;
  const int layers = 4;
  const int per_layer = 3;
  std::vector<std::vector<std::string>> names(layers);
  for (int l = 0; l < layers; ++l) {
    for (int i = 0; i < per_layer; ++i) {
      const std::string name = "op_" + std::to_string(l) + "_" + std::to_string(i);
      names[l].push_back(name);
      if (l == 0)
        g.add_operation({name, "src", {}, OpClass::Sensor, {}});
      else
        g.add_compute(name, "work");
    }
  }
  for (int l = 1; l < layers; ++l)
    for (int i = 0; i < per_layer; ++i) {
      // Each op depends on 1-2 ops of the previous layer.
      const int deps = 1 + static_cast<int>(rng.uniform_int(0, 1));
      for (int d = 0; d < deps; ++d)
        g.add_dependency(names[l - 1][static_cast<std::size_t>(rng.uniform_int(0, per_layer - 1))],
                         names[l][static_cast<std::size_t>(i)],
                         static_cast<Bytes>(rng.uniform_int(16, 256)));
  }

  const ArchitectureGraph arch = small_arch();
  const DurationTable t = simple_durations();
  const Schedule s = Adequation(g, arch, t).run();
  validate_schedule(s, g, arch);
  EXPECT_GE(s.makespan, 2'000 * layers);  // fastest-operator critical path
  EXPECT_EQ(s.placement_count(), g.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAdequationTest, ::testing::Range(0, 10));

// --- Schedule::sort_items against a reference stable sort -------------------

/// One row rendered with every column, so two orders compare in full.
std::string row_text(const Schedule& s, std::size_t i) {
  const ScheduledItem it = s.item(i);
  return strprintf("%s|%s|%s|%lld|%lld|%s|%s|%s|%s|%llu|%u|%u|%lld", item_kind_name(it.kind),
                   it.label.c_str(), it.resource.c_str(), static_cast<long long>(it.start),
                   static_cast<long long>(it.end), it.variant.c_str(), it.module.c_str(),
                   it.src.c_str(), it.dst.c_str(), static_cast<unsigned long long>(it.bytes),
                   it.edge, it.op, static_cast<long long>(it.exposed_stall));
}

/// Sorts `s` and checks it against std::stable_sort by (start, resource
/// name) over the rows as emitted.
void expect_reference_order(Schedule s) {
  std::vector<std::size_t> order(s.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (s.start(a) != s.start(b)) return s.start(a) < s.start(b);
    return s.resource(a) < s.resource(b);
  });
  std::vector<std::string> want;
  for (const std::size_t i : order) want.push_back(row_text(s, i));
  s.sort_items();
  ASSERT_EQ(s.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) ASSERT_EQ(row_text(s, i), want[i]) << "row " << i;
}

/// A hand-built schedule over `resources` resources, interned in reverse
/// name order so symbol ids disagree with name order. Each resource's
/// starts step by 0..2 from `base` (ties within and across resources)
/// unless `monotone` is off, when they are drawn at random.
Schedule hand_built(std::uint64_t seed, int resources, int items, TimeNs base, bool monotone) {
  Rng rng(seed);
  Schedule s;
  std::vector<std::string> names;
  for (int r = resources; r-- > 0;) names.push_back(strprintf("R%03d", r));
  for (const std::string& name : names) s.intern(name);
  std::vector<TimeNs> next(names.size(), base);
  for (int i = 0; i < items; ++i) {
    const auto r = static_cast<std::size_t>(rng.uniform_int(0, resources - 1));
    ScheduledItem item;
    item.kind = static_cast<ItemKind>(rng.uniform_int(0, 2));
    item.label = "item" + std::to_string(i);
    item.resource = names[r];
    item.start = monotone ? next[r] : base + rng.uniform_int(0, 3 * items);
    item.end = item.start + rng.uniform_int(0, 5);
    item.bytes = static_cast<Bytes>(i);
    next[r] += rng.uniform_int(0, 2);
    s.push_item(item);
  }
  return s;
}

TEST(ScheduleSort, MonotoneRunsMatchReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed)
    expect_reference_order(hand_built(seed, 7, 600, 0, /*monotone=*/true));
}

TEST(ScheduleSort, TiesAcrossResourcesAtOneInstant) {
  // Every item starts at t = 5: the order is resource name, then emission.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Schedule s = hand_built(seed, 9, 200, 5, /*monotone=*/true);
    for (std::size_t i = 0; i < s.size(); ++i) s.set_start(i, 5);
    expect_reference_order(std::move(s));
  }
}

TEST(ScheduleSort, NonMonotoneRunsMatchReference) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed)
    expect_reference_order(hand_built(seed, 6, 500, 0, /*monotone=*/false));
  // One step back in an otherwise monotone run.
  Schedule s = hand_built(9, 4, 100, 0, /*monotone=*/true);
  s.set_start(s.size() - 1, -1);
  expect_reference_order(std::move(s));
}

TEST(ScheduleSort, NegativeStarts) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expect_reference_order(hand_built(seed, 5, 300, -400, /*monotone=*/true));
    expect_reference_order(hand_built(seed, 5, 300, -400, /*monotone=*/false));
  }
}

TEST(ScheduleSort, MoreThan256Resources) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expect_reference_order(hand_built(seed, 300, 3'000, 0, /*monotone=*/true));
    expect_reference_order(hand_built(seed, 300, 3'000, 0, /*monotone=*/false));
  }
}

TEST(ScheduleSort, StartsBeyondThePackedRange) {
  const TimeNs base = TimeNs{1} << 40;
  expect_reference_order(hand_built(4, 5, 300, base, /*monotone=*/true));
  expect_reference_order(hand_built(4, 5, 300, base, /*monotone=*/false));
}

}  // namespace
}  // namespace pdr::aaa
