#include <gtest/gtest.h>

#include <set>

#include "aaa/adequation.hpp"
#include "aaa/algorithm_graph.hpp"
#include "aaa/architecture_graph.hpp"
#include "aaa/durations.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdr::aaa {
namespace {

// --- algorithm graph -----------------------------------------------------------

AlgorithmGraph pipeline3() {
  AlgorithmGraph g;
  g.add_sensor("in");
  g.add_compute("work", "fir");
  g.add_actuator("out");
  g.add_dependency("in", "work", 64);
  g.add_dependency("work", "out", 64);
  return g;
}

TEST(AlgorithmGraph, BuildAndValidate) {
  AlgorithmGraph g = pipeline3();
  EXPECT_NO_THROW(g.validate());
  EXPECT_EQ(g.size(), 3u);
  EXPECT_EQ(g.op(g.by_name("work")).kind, "fir");
}

TEST(AlgorithmGraph, DuplicateNameRejected) {
  AlgorithmGraph g;
  g.add_sensor("x");
  EXPECT_THROW(g.add_compute("x", "fir"), pdr::Error);
}

TEST(AlgorithmGraph, UnknownNameThrows) {
  AlgorithmGraph g = pipeline3();
  EXPECT_THROW(g.by_name("nope"), pdr::Error);
  EXPECT_FALSE(g.find("nope").has_value());
}

TEST(AlgorithmGraph, SelfDependencyRejected) {
  AlgorithmGraph g;
  g.add_compute("a", "fir");
  EXPECT_THROW(g.add_dependency("a", "a", 1), pdr::Error);
}

TEST(AlgorithmGraph, CycleFailsValidation) {
  AlgorithmGraph g;
  g.add_compute("a", "fir");
  g.add_compute("b", "fir");
  g.add_dependency("a", "b", 1);
  g.add_dependency("b", "a", 1);
  EXPECT_THROW(g.validate(), pdr::Error);
}

TEST(AlgorithmGraph, SensorWithInputFailsValidation) {
  AlgorithmGraph g;
  g.add_compute("a", "fir");
  g.add_sensor("s");
  g.add_dependency("a", "s", 1);
  EXPECT_THROW(g.validate(), pdr::Error);
}

TEST(AlgorithmGraph, ActuatorWithOutputFailsValidation) {
  AlgorithmGraph g;
  g.add_actuator("out");
  g.add_compute("a", "fir");
  g.add_dependency("out", "a", 1);
  EXPECT_THROW(g.validate(), pdr::Error);
}

TEST(AlgorithmGraph, ConditionedVertexNeedsTwoAlternatives) {
  AlgorithmGraph g;
  EXPECT_THROW(g.add_conditioned("m", {{"only", "qpsk_mapper", {}}}), pdr::Error);
}

TEST(AlgorithmGraph, ConditionedDuplicateAlternativeFailsValidation) {
  AlgorithmGraph g;
  g.add_conditioned("m", {{"a", "qpsk_mapper", {}}, {"a", "qam16_mapper", {}}});
  EXPECT_THROW(g.validate(), pdr::Error);
}

TEST(AlgorithmGraph, RepetitionExpandsWithSplitPayloads) {
  AlgorithmGraph g;
  g.add_sensor("in");
  g.add_compute("work", "fir");
  g.add_actuator("out");
  g.add_dependency("in", "work", 100);
  g.add_dependency("work", "out", 60);

  const auto names = g.expand_repetition("work", 4);
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "work#0");
  EXPECT_FALSE(g.find("work").has_value());
  EXPECT_EQ(g.size(), 6u);  // in + 4 instances + out
  EXPECT_NO_THROW(g.validate());

  // Each instance carries 1/4 of the payload (ceil).
  const auto& dg = g.digraph();
  const NodeId w0 = g.by_name("work#0");
  ASSERT_EQ(dg.in_edges(w0).size(), 1u);
  EXPECT_EQ(dg.edge(dg.in_edges(w0)[0]).bytes, 25u);
  EXPECT_EQ(dg.edge(dg.out_edges(w0)[0]).bytes, 15u);
  // The sensor fans out to all instances.
  EXPECT_EQ(dg.out_edges(g.by_name("in")).size(), 4u);
}

TEST(AlgorithmGraph, RepetitionRejectsBadTargets) {
  AlgorithmGraph g;
  g.add_sensor("s");
  g.add_compute("c", "fir");
  g.add_conditioned("m", {{"a", "fir", {}}, {"b", "fir", {}}});
  EXPECT_THROW(g.expand_repetition("s", 2), pdr::Error);  // sensor
  EXPECT_THROW(g.expand_repetition("m", 2), pdr::Error);  // conditioned
  EXPECT_THROW(g.expand_repetition("c", 1), pdr::Error);  // count < 2
  EXPECT_THROW(g.expand_repetition("ghost", 2), pdr::Error);
}

TEST(AlgorithmGraph, RepetitionEnablesParallelSpeedup) {
  // One heavy op vs 4 repeated instances on a platform with 2 CPUs: the
  // adequation spreads instances and the makespan drops.
  DurationTable t;
  t.set("src", OperatorKind::Processor, 1'000);
  t.set("heavy", OperatorKind::Processor, 40'000);

  ArchitectureGraph arch;
  arch.add_operator(OperatorNode{"CPU0", OperatorKind::Processor, 1.0, "", ""});
  arch.add_operator(OperatorNode{"CPU1", OperatorKind::Processor, 1.0, "", ""});
  arch.add_medium(MediumNode{"BUS", 1e9, 10});
  arch.connect("CPU0", "BUS");
  arch.connect("CPU1", "BUS");

  AlgorithmGraph serial;
  serial.add_operation({"s", "src", {}, OpClass::Sensor, {}});
  serial.add_compute("heavy", "heavy");
  serial.add_dependency("s", "heavy", 64);

  AlgorithmGraph parallel = serial;
  parallel.expand_repetition("heavy", 4);
  // Repeated instances each process 1/4 of the data in 1/4 of the time.
  DurationTable t4 = t;
  t4.set("heavy", OperatorKind::Processor, 10'000);

  const Schedule s1 = Adequation(serial, arch, t).run();
  const Schedule s4 = Adequation(parallel, arch, t4).run();
  validate_schedule(s4, parallel, arch);
  EXPECT_LT(s4.makespan, s1.makespan);
  // Both CPUs participate.
  std::set<std::string> used;
  for (const auto sym : s4.placement)
    if (sym != util::kNoSymbol) used.insert(std::string(s4.name(sym)));
  EXPECT_EQ(used.size(), 2u);
}

// The name->NodeId index is maintained by hand in lockstep with the
// digraph (PR 6); every expand_repetition tombstones a node and registers
// fresh instance names, which is exactly where a hand-kept index drifts.
// Fuzz 20 seeded graphs through repeated expand cycles (instances are
// themselves expandable) and assert by_name/find agree with a linear scan
// of the live digraph after every mutation.
TEST(AlgorithmGraph, RepetitionIndexStaysConsistentUnderFuzz) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL;
    const auto rnd = [&state](std::uint64_t n) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state % n;
    };

    AlgorithmGraph g;
    g.add_sensor("in");
    std::vector<std::string> expandable;
    std::string prev = "in";
    const int chain = 2 + static_cast<int>(rnd(4));
    for (int i = 0; i < chain; ++i) {
      const std::string name = strprintf("c%d", i);
      g.add_compute(name, "fir");
      g.add_dependency(prev, name, 64 + 8 * static_cast<Bytes>(i));
      expandable.push_back(name);
      prev = name;
    }
    g.add_actuator("out");
    g.add_dependency(prev, "out", 64);

    const auto check_index = [&g]() {
      std::size_t live = 0;
      g.digraph().for_each_live_node([&](graph::NodeId id, const Operation& op) {
        ++live;
        EXPECT_EQ(g.by_name(op.name), id) << op.name;
        const auto found = g.find(op.name);
        ASSERT_TRUE(found.has_value()) << op.name;
        EXPECT_EQ(*found, id) << op.name;
      });
      EXPECT_EQ(g.size(), live);
    };
    check_index();

    for (int round = 0; round < 6 && !expandable.empty(); ++round) {
      const std::size_t pick = rnd(expandable.size());
      const std::string victim = expandable[pick];
      expandable.erase(expandable.begin() + static_cast<std::ptrdiff_t>(pick));
      const auto instances = g.expand_repetition(victim, 2 + static_cast<int>(rnd(3)));
      EXPECT_FALSE(g.find(victim).has_value()) << victim;
      for (const auto& inst : instances) expandable.push_back(inst);
      check_index();
      EXPECT_NO_THROW(g.validate());
    }
  }
}

TEST(AlgorithmGraph, DotShowsConditionedVertices) {
  AlgorithmGraph g;
  g.add_conditioned("mod", {{"qpsk", "qpsk_mapper", {}}, {"qam16", "qam16_mapper", {}}});
  g.add_sensor("in");
  g.add_dependency("in", "mod", 8);
  const std::string dot = g.to_dot();
  EXPECT_NE(dot.find("doubleoctagon"), std::string::npos);
  EXPECT_NE(dot.find("qam16"), std::string::npos);
}

// --- architecture graph -----------------------------------------------------------

TEST(ArchitectureGraph, SundanceModel) {
  ArchitectureGraph arch = make_sundance_architecture();
  EXPECT_NO_THROW(arch.validate());
  EXPECT_EQ(arch.operators().size(), 3u);
  EXPECT_EQ(arch.media().size(), 2u);
  EXPECT_EQ(arch.op(arch.by_name("DSP")).kind, OperatorKind::Processor);
  EXPECT_EQ(arch.op(arch.by_name("D1")).kind, OperatorKind::FpgaRegion);
  EXPECT_EQ(arch.op(arch.by_name("D1")).region, "D1");
}

TEST(ArchitectureGraph, Figure1Model) {
  ArchitectureGraph arch = make_figure1_architecture(2, 100e6);
  EXPECT_NO_THROW(arch.validate());
  EXPECT_EQ(arch.operators_of_kind(OperatorKind::FpgaRegion).size(), 2u);
  EXPECT_EQ(arch.media().size(), 1u);  // the internal link IL
}

TEST(ArchitectureGraph, RouteThroughMedia) {
  ArchitectureGraph arch = make_sundance_architecture();
  const auto route = arch.route(arch.by_name("DSP"), arch.by_name("F1"));
  ASSERT_EQ(route.size(), 1u);
  EXPECT_EQ(arch.medium(route[0]).name, "SHB");

  // DSP -> D1 crosses SHB then LIO.
  const auto long_route = arch.route(arch.by_name("DSP"), arch.by_name("D1"));
  ASSERT_EQ(long_route.size(), 2u);
  EXPECT_EQ(arch.medium(long_route[0]).name, "SHB");
  EXPECT_EQ(arch.medium(long_route[1]).name, "LIO");
}

TEST(ArchitectureGraph, RouteToSelfIsEmpty) {
  ArchitectureGraph arch = make_sundance_architecture();
  EXPECT_TRUE(arch.route(arch.by_name("F1"), arch.by_name("F1")).empty());
}

TEST(ArchitectureGraph, DisconnectedFailsValidation) {
  ArchitectureGraph arch;
  arch.add_operator(OperatorNode{"A", OperatorKind::Processor, 1.0, "", ""});
  arch.add_operator(OperatorNode{"B", OperatorKind::Processor, 1.0, "", ""});
  EXPECT_THROW(arch.validate(), pdr::Error);
}

TEST(ArchitectureGraph, ConnectRequiresOperatorAndMedium) {
  ArchitectureGraph arch;
  const NodeId a = arch.add_operator(OperatorNode{"A", OperatorKind::Processor, 1.0, "", ""});
  const NodeId b = arch.add_operator(OperatorNode{"B", OperatorKind::Processor, 1.0, "", ""});
  EXPECT_THROW(arch.connect(a, b), pdr::Error);
}

TEST(ArchitectureGraph, RegionOperatorNeedsRegionName) {
  ArchitectureGraph arch;
  EXPECT_THROW(arch.add_operator(OperatorNode{"D", OperatorKind::FpgaRegion, 1.0, "XC2V2000", ""}),
               pdr::Error);
}

TEST(ArchitectureGraph, MediumNeedsBandwidth) {
  ArchitectureGraph arch;
  EXPECT_THROW(arch.add_medium(MediumNode{"bus", 0.0, 0}), pdr::Error);
}

TEST(ArchitectureGraph, MediumTransferTime) {
  const MediumNode m{"bus", 100e6, 500};
  EXPECT_EQ(m.transfer_time(0), 500);
  EXPECT_EQ(m.transfer_time(100), 500 + 1000);  // 100 B at 100 MB/s = 1 us
}

TEST(ArchitectureGraph, DotContainsAllVertices) {
  ArchitectureGraph arch = make_sundance_architecture();
  const std::string dot = arch.to_dot();
  for (const char* name : {"DSP", "F1", "D1", "SHB", "LIO"})
    EXPECT_NE(dot.find(name), std::string::npos) << name;
}

// --- durations ------------------------------------------------------------------

TEST(Durations, KindAndNameLookup) {
  DurationTable t;
  t.set("fir", OperatorKind::Processor, 1000);
  t.set_for("fir", "DSP2", 400);
  const OperatorNode any{"DSP1", OperatorKind::Processor, 1.0, "", ""};
  const OperatorNode special{"DSP2", OperatorKind::Processor, 1.0, "", ""};
  EXPECT_EQ(t.lookup("fir", any), 1000);
  EXPECT_EQ(t.lookup("fir", special), 400);  // name entry wins
}

TEST(Durations, SpeedFactorScales) {
  DurationTable t;
  t.set("fir", OperatorKind::Processor, 1000);
  const OperatorNode fast{"D", OperatorKind::Processor, 2.0, "", ""};
  EXPECT_EQ(t.lookup("fir", fast), 500);
}

TEST(Durations, UnsupportedThrows) {
  DurationTable t;
  t.set("fir", OperatorKind::Processor, 1000);
  const OperatorNode fpga{"F", OperatorKind::FpgaStatic, 1.0, "", ""};
  EXPECT_FALSE(t.supports("fir", fpga));
  EXPECT_THROW(t.lookup("fir", fpga), pdr::Error);
  EXPECT_THROW(t.mean("nothing"), pdr::Error);
}

TEST(Durations, MeanAveragesEntries) {
  DurationTable t;
  t.set("fir", OperatorKind::Processor, 1000);
  t.set("fir", OperatorKind::FpgaStatic, 200);
  EXPECT_DOUBLE_EQ(t.mean("fir"), 600.0);
}

TEST(Durations, McCdmaTableCoversCaseStudyKinds) {
  const DurationTable t = mccdma_durations();
  const OperatorNode dsp{"DSP", OperatorKind::Processor, 1.0, "", ""};
  const OperatorNode f1{"F1", OperatorKind::FpgaStatic, 1.0, "", ""};
  for (const char* kind : {"bit_source", "scrambler", "conv_encoder", "interleaver",
                           "qpsk_mapper", "qam16_mapper", "walsh_spreader", "ifft",
                           "cyclic_prefix", "frame_builder", "interface_in_out"}) {
    EXPECT_TRUE(t.supports(kind, dsp)) << kind;
    EXPECT_TRUE(t.supports(kind, f1)) << kind;
    // FPGA is faster than the DSP for the datapath blocks.
    if (std::string(kind) != "interface_in_out") {
      EXPECT_LT(t.lookup(kind, f1), t.lookup(kind, dsp)) << kind;
    }
  }
}

TEST(Durations, RejectsNonPositive) {
  DurationTable t;
  EXPECT_THROW(t.set("x", OperatorKind::Processor, 0), pdr::Error);
  EXPECT_THROW(t.set_for("x", "A", -5), pdr::Error);
}

}  // namespace
}  // namespace pdr::aaa
