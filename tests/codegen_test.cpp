#include <gtest/gtest.h>

#include <set>
#include <string>

#include "aaa/adequation.hpp"
#include "aaa/codegen_c.hpp"
#include "aaa/codegen_m4.hpp"
#include "aaa/codegen_vhdl.hpp"
#include "aaa/durations.hpp"
#include "aaa/macrocode.hpp"
#include "lint/executive_rules.hpp"
#include "sim/executive_player.hpp"
#include "util/error.hpp"
#include "util/units.hpp"
#include "verify/verify.hpp"

namespace pdr::aaa {
namespace {

using namespace pdr::literals;

struct Fixture {
  AlgorithmGraph algo;
  ArchitectureGraph arch;
  DurationTable durations;
  Schedule schedule;
  Executive executive;

  Fixture() {
    algo.add_operation({"src", "bit_source", {}, OpClass::Sensor, {}});
    algo.add_conditioned("mod", {{"qpsk", "qpsk_mapper", {}}, {"qam16", "qam16_mapper", {}}});
    algo.add_compute("fft", "ifft", {{"n", 64}});
    algo.add_operation({"out", "interface_in_out", {}, OpClass::Actuator, {}});
    algo.add_dependency("src", "mod", 16);
    algo.add_dependency("mod", "fft", 64);
    algo.add_dependency("fft", "out", 256);

    arch = make_sundance_architecture();
    durations = mccdma_durations();

    Adequation adequation(algo, arch, durations);
    adequation.pin("mod", "D1");
    adequation.pin("src", "DSP");  // force DSP participation + transfers
    AdequationOptions options;
    options.reconfig_cost = [](const std::string&, const std::string&) { return 4_ms; };
    schedule = adequation.run(options);
    validate_schedule(schedule, algo, arch);
    executive = generate_executive(schedule, algo, arch);
  }
};

TEST(Macrocode, EveryArchitectureVertexHasProgram) {
  const Fixture f;
  EXPECT_EQ(f.executive.programs.size(), 5u);  // DSP, F1, D1, SHB, LIO
  for (const char* name : {"DSP", "F1", "D1", "SHB", "LIO"})
    EXPECT_NO_THROW(f.executive.program(name)) << name;
  EXPECT_THROW(f.executive.program("nope"), pdr::Error);
}

TEST(Macrocode, ComputeCountsMatchSchedule) {
  const Fixture f;
  int computes = 0, reconfigs = 0, moves = 0, sends = 0, recvs = 0;
  for (const auto& p : f.executive.programs)
    for (const auto& i : p.body) {
      if (i.op == MacroOp::Compute) ++computes;
      if (i.op == MacroOp::Reconfig) ++reconfigs;
      if (i.op == MacroOp::Move) ++moves;
      if (i.op == MacroOp::Send) ++sends;
      if (i.op == MacroOp::Recv) ++recvs;
    }
  EXPECT_EQ(computes, 4);
  EXPECT_EQ(reconfigs, f.schedule.reconfig_count);
  EXPECT_EQ(sends, moves);
  EXPECT_EQ(recvs, moves);
}

TEST(Macrocode, RecvPrecedesComputeOnConsumer) {
  const Fixture f;
  const MacroProgram& d1 = f.executive.program("D1");
  int recv_at = -1, compute_at = -1;
  for (std::size_t i = 0; i < d1.body.size(); ++i) {
    if (d1.body[i].op == MacroOp::Recv && recv_at < 0) recv_at = static_cast<int>(i);
    if (d1.body[i].op == MacroOp::Compute) compute_at = static_cast<int>(i);
  }
  ASSERT_GE(recv_at, 0);
  ASSERT_GE(compute_at, 0);
  EXPECT_LT(recv_at, compute_at);
}

TEST(Macrocode, MediumProgramsOnlyMove) {
  const Fixture f;
  for (const char* m : {"SHB", "LIO"}) {
    const MacroProgram& p = f.executive.program(m);
    EXPECT_TRUE(p.is_medium);
    for (const auto& i : p.body) EXPECT_EQ(i.op, MacroOp::Move);
    EXPECT_FALSE(p.body.empty()) << m;
  }
}

TEST(Macrocode, ToStringListsInstructions) {
  const Fixture f;
  const std::string s = f.executive.to_string();
  EXPECT_NE(s.find("operator F1"), std::string::npos);
  EXPECT_NE(s.find("loop:"), std::string::npos);
  EXPECT_NE(s.find("compute"), std::string::npos);
}

// --- transfer endpoints and buffer names -------------------------------------

/// a -> b over BUS: a hand-built schedule whose transfer row carries no
/// edge unless one is set.
struct HandBuilt {
  AlgorithmGraph algo;
  ArchitectureGraph arch;
  Schedule schedule;

  HandBuilt() {
    algo.add_operation({"a", "src", {}, OpClass::Sensor, {}});
    algo.add_operation({"b", "sink", {}, OpClass::Actuator, {}});
    algo.add_dependency("a", "b", 64);
    arch.add_operator(OperatorNode{"CPU", OperatorKind::Processor, 1.0, "", ""});
    arch.add_operator(OperatorNode{"F1", OperatorKind::FpgaStatic, 1.0, "XC2V2000", ""});
    arch.add_medium(MediumNode{"BUS", 100e6, 0});
    arch.connect("CPU", "BUS");
    arch.connect("F1", "BUS");

    schedule.placement.assign(algo.size(), util::kNoSymbol);
    schedule.placement[algo.by_name("a")] = schedule.intern("CPU");
    schedule.placement[algo.by_name("b")] = schedule.intern("F1");
    push(ItemKind::Compute, "a", "CPU", 0, 10);
    push(ItemKind::Transfer, "a->b", "BUS", 10, 20);
    push(ItemKind::Compute, "b", "F1", 20, 30);
  }

  void push(ItemKind kind, const std::string& label, const std::string& where, TimeNs start,
            TimeNs end) {
    ScheduledItem item;
    item.kind = kind;
    item.label = label;
    item.resource = where;
    item.start = start;
    item.end = end;
    if (kind == ItemKind::Transfer) {
      item.src = "a";
      item.dst = "b";
      item.bytes = 64;
    }
    schedule.push_item(item);
  }

  std::size_t transfer() const {
    for (std::size_t i = 0; i < schedule.size(); ++i)
      if (schedule.kind(i) == ItemKind::Transfer) return i;
    return schedule.size();
  }
};

TEST(Macrocode, TransferWithoutEdgeResolvesEndpointsByName) {
  const HandBuilt h;
  ASSERT_EQ(h.schedule.edge(h.transfer()), graph::kNoEdge);
  const Executive e = generate_executive(h.schedule, h.algo, h.arch);
  const MacroProgram& cpu = e.program("CPU");
  const MacroProgram& f1 = e.program("F1");
  ASSERT_EQ(cpu.body.size(), 2u);
  ASSERT_EQ(f1.body.size(), 2u);
  EXPECT_EQ(cpu.body[1].op, MacroOp::Send);
  EXPECT_EQ(f1.body[0].op, MacroOp::Recv);
  EXPECT_EQ(e.name(cpu.body[1].what), "a_to_b");
  EXPECT_EQ(e.name(cpu.body[1].with), "BUS");
  EXPECT_EQ(cpu.body[1].what, f1.body[0].what);
  EXPECT_EQ(e.name(e.program("BUS").body.at(0).what), "a_to_b");
}

TEST(Macrocode, TransferWithEdgeTakesEndpointsFromTheEdge) {
  // The row names no operation of the graph; its edge still places both
  // ends, so no name is looked up.
  HandBuilt h;
  const std::size_t t = h.transfer();
  h.schedule.set_edge(t, h.algo.digraph().out_edges(h.algo.by_name("a")).at(0));
  ScheduledItem renamed = h.schedule.item(t);
  renamed.src = "no-such-op";
  h.schedule.erase_item(t);
  h.schedule.push_item(renamed);
  const Executive e = generate_executive(h.schedule, h.algo, h.arch);
  EXPECT_EQ(e.program("CPU").body.back().op, MacroOp::Send);
  EXPECT_EQ(e.program("F1").body.front().op, MacroOp::Recv);
  EXPECT_EQ(e.name(e.program("F1").body.front().what), "no-such-op_to_b");
}

TEST(Macrocode, UnplacedEndpointThrows) {
  for (const bool with_edge : {false, true}) {
    HandBuilt h;
    if (with_edge)
      h.schedule.set_edge(h.transfer(), h.algo.digraph().out_edges(h.algo.by_name("a")).at(0));
    h.schedule.placement[h.algo.by_name("b")] = util::kNoSymbol;
    try {
      generate_executive(h.schedule, h.algo, h.arch);
      ADD_FAILURE() << "an unplaced consumer must throw (edge " << with_edge << ")";
    } catch (const pdr::Error& err) {
      EXPECT_NE(std::string(err.what()).find("operation 'b' was not placed"), std::string::npos)
          << err.what();
    }
  }
}

TEST(Macrocode, RouteHopsAndParallelEdgesShareOneBuffer) {
  // src on the DSP feeds mod in region D1 over two parallel edges; each
  // edge routes DSP -SHB-> F1 -LIO-> D1, so four transfer rows name one
  // buffer. Every send, move and receive of it must carry one id.
  AlgorithmGraph algo;
  algo.add_operation({"src", "bit_source", {}, OpClass::Sensor, {}});
  algo.add_conditioned("mod", {{"qpsk", "qpsk_mapper", {}}, {"qam16", "qam16_mapper", {}}});
  algo.add_dependency("src", "mod", 16);
  algo.add_dependency("src", "mod", 32);
  const ArchitectureGraph arch = make_sundance_architecture();
  const DurationTable durations = mccdma_durations();
  Adequation adequation(algo, arch, durations);
  adequation.pin("src", "DSP");
  adequation.pin("mod", "D1");
  AdequationOptions options;
  options.reconfig_cost = [](const std::string&, const std::string&) { return 1_ms; };
  const Schedule schedule = adequation.run(options);
  std::set<graph::EdgeId> edges;
  std::size_t transfers = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i)
    if (schedule.kind(i) == ItemKind::Transfer) {
      edges.insert(schedule.edge(i));
      ++transfers;
    }
  ASSERT_EQ(edges.size(), 2u);
  ASSERT_EQ(transfers, 4u);

  const Executive e = generate_executive(schedule, algo, arch);
  std::set<util::SymbolId> buffers;
  std::size_t sends = 0;
  std::size_t moves = 0;
  std::size_t recvs = 0;
  for (const MacroProgram& p : e.programs)
    for (const MacroInstr& mi : p.body) {
      if (mi.op == MacroOp::Compute || mi.op == MacroOp::Reconfig) continue;
      buffers.insert(mi.what);
      sends += mi.op == MacroOp::Send;
      moves += mi.op == MacroOp::Move;
      recvs += mi.op == MacroOp::Recv;
    }
  ASSERT_EQ(buffers.size(), 1u);
  EXPECT_EQ(e.name(*buffers.begin()), "src_to_mod");
  EXPECT_EQ(sends, 4u);
  EXPECT_EQ(moves, 4u);
  EXPECT_EQ(recvs, 4u);

  // Lint's channel map pairs the sends and receives of the one buffer on
  // each medium, the static verifier certifies the schedule and the
  // player replays the executive without a hazard or a deadlock.
  const lint::Report report = lint::check_executive(e);
  EXPECT_FALSE(report.has(lint::Rule::SendWithoutRecv)) << report.to_text();
  EXPECT_FALSE(report.has(lint::Rule::RecvWithoutSend)) << report.to_text();
  EXPECT_TRUE(verify::verify_schedule(schedule, algo, arch).certified());
  sim::ExecutivePlayer player(e, arch);
  player.set_reconfig_cost([](const std::string&, const std::string&) { return 1_ms; });
  const sim::PlayResult result = player.run(3);
  EXPECT_EQ(result.hazard_faults, 0);
  EXPECT_EQ(result.iterations, 3);
}

// --- VHDL -----------------------------------------------------------------------

TEST(VhdlCodegen, PackageDeclaresTypes) {
  const std::string pkg = generate_vhdl_package();
  EXPECT_NE(pkg.find("package pdr_executive"), std::string::npos);
  EXPECT_NE(pkg.find("handshake_t"), std::string::npos);
}

TEST(VhdlCodegen, EntityHasFourDedicatedProcesses) {
  const Fixture f;
  const OperatorNode& f1 = f.arch.op(f.arch.by_name("F1"));
  const std::string vhdl = generate_vhdl_entity(f.executive.program("F1"), f1);
  // The paper's four processes (§5).
  EXPECT_NE(vhdl.find("comm_sequencer : process"), std::string::npos);
  EXPECT_NE(vhdl.find("compute_sequencer : process"), std::string::npos);
  EXPECT_NE(vhdl.find("operator_behaviour : process"), std::string::npos);
  EXPECT_NE(vhdl.find("buffer_phase_ctrl : process"), std::string::npos);
  EXPECT_NE(vhdl.find("entity F1 is"), std::string::npos);
  EXPECT_NE(vhdl.find("end architecture executive;"), std::string::npos);
}

TEST(VhdlCodegen, DynamicRegionGetsInReconfAndBusMacros) {
  const Fixture f;
  const OperatorNode& d1 = f.arch.op(f.arch.by_name("D1"));
  VhdlOptions options;
  options.bus_macro_count = 3;
  const std::string vhdl = generate_vhdl_entity(f.executive.program("D1"), d1, options);
  EXPECT_NE(vhdl.find("in_reconf : in std_logic"), std::string::npos);
  EXPECT_NE(vhdl.find("bus macro 2"), std::string::npos);
}

TEST(VhdlCodegen, StaticPartCanEmbedReconfigManager) {
  const Fixture f;
  const OperatorNode& f1 = f.arch.op(f.arch.by_name("F1"));
  VhdlOptions options;
  options.embed_reconfig_manager = true;
  const std::string vhdl = generate_vhdl_entity(f.executive.program("F1"), f1, options);
  EXPECT_NE(vhdl.find("u_config_manager"), std::string::npos);
  EXPECT_NE(vhdl.find("u_protocol_builder"), std::string::npos);
  EXPECT_NE(vhdl.find("cfg_data"), std::string::npos);
}

TEST(VhdlCodegen, SequencersAreRealFsms) {
  const Fixture f;
  const OperatorNode& d1 = f.arch.op(f.arch.by_name("D1"));
  const std::string vhdl = generate_vhdl_entity(f.executive.program("D1"), d1);
  // Communication sequencer: a case FSM handshaking each buffer.
  EXPECT_NE(vhdl.find("case comm_step is"), std::string::npos);
  EXPECT_NE(vhdl.find("_in.req = '1'"), std::string::npos);
  EXPECT_NE(vhdl.find("when others => comm_step <= 0;"), std::string::npos);
  // Computation sequencer: start/done chaining, frozen by in_reconf.
  EXPECT_NE(vhdl.find("case compute_step is"), std::string::npos);
  EXPECT_NE(vhdl.find("elsif in_reconf = '1' then"), std::string::npos);
  EXPECT_NE(vhdl.find("start_"), std::string::npos);
  EXPECT_NE(vhdl.find("done_"), std::string::npos);
}

TEST(VhdlCodegen, StaticPartSequencerNotLockedByReconf) {
  const Fixture f;
  const OperatorNode& f1 = f.arch.op(f.arch.by_name("F1"));
  const std::string vhdl = generate_vhdl_entity(f.executive.program("F1"), f1);
  EXPECT_EQ(vhdl.find("elsif in_reconf"), std::string::npos);
}

TEST(VhdlCodegen, HandshakePortsPerBuffer) {
  const Fixture f;
  const OperatorNode& d1 = f.arch.op(f.arch.by_name("D1"));
  const std::string vhdl = generate_vhdl_entity(f.executive.program("D1"), d1);
  EXPECT_NE(vhdl.find("_in : in handshake_t"), std::string::npos);
  EXPECT_NE(vhdl.find("_out : out handshake_t"), std::string::npos);
}

TEST(VhdlCodegen, ProcessorRejected) {
  const Fixture f;
  const OperatorNode& dsp = f.arch.op(f.arch.by_name("DSP"));
  EXPECT_THROW(generate_vhdl_entity(f.executive.program("DSP"), dsp), pdr::Error);
}

TEST(VhdlCodegen, MediumRejected) {
  const Fixture f;
  const OperatorNode& f1 = f.arch.op(f.arch.by_name("F1"));
  EXPECT_THROW(generate_vhdl_entity(f.executive.program("SHB"), f1), pdr::Error);
}

TEST(VhdlCodegen, TopLevelInstantiatesFpgaOperators) {
  const Fixture f;
  const ConstraintSet cset;
  const std::string top = generate_vhdl_top(f.executive, f.arch, cset);
  EXPECT_NE(top.find("entity design_top"), std::string::npos);
  EXPECT_NE(top.find("u_F1"), std::string::npos);
  EXPECT_NE(top.find("u_D1"), std::string::npos);
  EXPECT_EQ(top.find("u_DSP"), std::string::npos);  // processors are not FPGA entities
  EXPECT_NE(top.find("reconfigurable region D1"), std::string::npos);
}

// --- C ---------------------------------------------------------------------------

TEST(CCodegen, ExecutiveLoopWithSendRecv) {
  const Fixture f;
  const OperatorNode& dsp = f.arch.op(f.arch.by_name("DSP"));
  ConstraintSet cset;
  const std::string c = generate_c_executive(f.executive.program("DSP"), dsp, cset);
  EXPECT_NE(c.find("void executive_DSP(void)"), std::string::npos);
  EXPECT_NE(c.find("for (;;)"), std::string::npos);
  EXPECT_NE(c.find("medium_send"), std::string::npos);
  EXPECT_NE(c.find("op_src"), std::string::npos);
}

TEST(CCodegen, CpuManagerEmitsIsr) {
  const Fixture f;
  const OperatorNode& dsp = f.arch.op(f.arch.by_name("DSP"));
  ConstraintSet cset;
  cset.manager = Placement::Cpu;
  cset.port = PortChoice::SelectMap;
  const std::string c = generate_c_executive(f.executive.program("DSP"), dsp, cset);
  EXPECT_NE(c.find("reconfig_isr"), std::string::npos);
  EXPECT_NE(c.find("selectmap_feed"), std::string::npos);
}

TEST(CCodegen, FpgaManagerOmitsIsr) {
  const Fixture f;
  const OperatorNode& dsp = f.arch.op(f.arch.by_name("DSP"));
  ConstraintSet cset;  // manager defaults to fpga
  const std::string c = generate_c_executive(f.executive.program("DSP"), dsp, cset);
  EXPECT_EQ(c.find("reconfig_isr"), std::string::npos);
}

TEST(CCodegen, FpgaOperatorRejected) {
  const Fixture f;
  const OperatorNode& f1 = f.arch.op(f.arch.by_name("F1"));
  ConstraintSet cset;
  EXPECT_THROW(generate_c_executive(f.executive.program("F1"), f1, cset), pdr::Error);
}

// --- m4 (SynDEx's native macro-code form) --------------------------------------

TEST(M4Codegen, OperatorFileHasLoopAndMacros) {
  const Fixture f;
  const std::string m4 = generate_m4_macrocode(f.executive.program("D1"), f.arch);
  EXPECT_NE(m4.find("processor_(D1, fpga_region)"), std::string::npos);
  EXPECT_NE(m4.find("main_"), std::string::npos);
  EXPECT_NE(m4.find("loop_"), std::string::npos);
  EXPECT_NE(m4.find("endloop_"), std::string::npos);
  EXPECT_NE(m4.find("compute_("), std::string::npos);
  EXPECT_NE(m4.find("reconf_("), std::string::npos);
  EXPECT_NE(m4.find("recv_("), std::string::npos);
}

TEST(M4Codegen, MediumFileUsesMoveMacros) {
  const Fixture f;
  const std::string m4 = generate_m4_macrocode(f.executive.program("SHB"), f.arch);
  EXPECT_NE(m4.find("media_(SHB)"), std::string::npos);
  EXPECT_NE(m4.find("move_("), std::string::npos);
  EXPECT_EQ(m4.find("compute_("), std::string::npos);
}

TEST(M4Codegen, ApplicationIndexDeclaresEverything) {
  const Fixture f;
  const std::string m4 = generate_m4_application(f.executive, f.arch, "mccdma_tx");
  EXPECT_NE(m4.find("application_(mccdma_tx)"), std::string::npos);
  for (const char* name : {"DSP", "F1", "D1", "SHB", "LIO"})
    EXPECT_NE(m4.find(name), std::string::npos) << name;
  EXPECT_NE(m4.find("include_(F1.m4)"), std::string::npos);
}

TEST(M4Codegen, UnknownResourceRejected) {
  const Fixture f;
  MacroProgram ghost;
  ghost.resource = "GHOST";
  EXPECT_THROW(generate_m4_macrocode(ghost, f.arch), pdr::Error);
}

}  // namespace
}  // namespace pdr::aaa
