// Codegen-corpus golden: every case of the schedule corpus (see
// schedule_corpus.hpp) plus a few hand-built schedules, rendered through
// the executive generator, the m4 emitters and the schedule exporters,
// one hash line per output, compared with
// tests/fixtures/codegen_corpus.txt.
//
// Line formats:
//   <case> executive h=<hash> n=<bytes>       Executive::to_string()
//   <case> m4 <resource> h=<hash> n=<bytes>   generate_m4_macrocode, per program
//   <case> m4app h=<hash> n=<bytes>           generate_m4_application
//   <case> c <resource> h=<hash> n=<bytes>    generate_c_executive, per processor
//   <case> vhdl <resource> h=<hash> n=<bytes> generate_vhdl_entity, per FPGA operator
//   <case> vhdltop h=<hash> n=<bytes>         generate_vhdl_top
//   <case> csv h=<hash> n=<bytes>             Schedule::to_csv()
//   <case> text h=<hash> n=<bytes>            Schedule::to_string()
//   <case> executive threw <message>
//
// The hand-built cases cover what the corpus does not: names the
// identifier sanitizer must rewrite (a leading digit, '-', '.', an empty
// label, module and variant), names longer than the text columns, a
// receive, a compute and a send at one instant on one operator, a
// transfer whose endpoints sit on the same operator, and items on a
// resource that has no program.
//
// On a mismatch the computed lines are written to
// codegen_corpus.actual.txt in the test's build directory and the first
// differing lines are printed. The golden may change only with a
// CHANGES.md line saying why.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "aaa/codegen_c.hpp"
#include "aaa/codegen_m4.hpp"
#include "aaa/codegen_vhdl.hpp"
#include "aaa/macrocode.hpp"
#include "schedule_corpus.hpp"
#include "util/error.hpp"

namespace pdr {
namespace {

using namespace pdr::literals;

std::uint64_t fnv1a(const std::string& text, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hash_line(const std::string& prefix, const std::string& text) {
  return strprintf("%s h=%016llx n=%zu\n", prefix.c_str(),
                   static_cast<unsigned long long>(fnv1a(text)), text.size());
}

std::string outputs(const std::string& name, const aaa::Schedule& s,
                    const aaa::AlgorithmGraph& algorithm,
                    const aaa::ArchitectureGraph& architecture) {
  std::string out;
  try {
    const aaa::Executive exec = aaa::generate_executive(s, algorithm, architecture);
    out += hash_line(name + " executive", exec.to_string());
    for (const auto& program : exec.programs)
      out += hash_line(name + " m4 " + program.resource,
                       aaa::generate_m4_macrocode(program, architecture));
    out += hash_line(name + " m4app", aaa::generate_m4_application(exec, architecture, "app-1.x"));
    // The C and VHDL translations as the pipeline drives them, under the
    // default constraint set.
    const aaa::ConstraintSet constraints;
    for (aaa::NodeId n : architecture.operators()) {
      const aaa::OperatorNode& op = architecture.op(n);
      const aaa::MacroProgram& program = exec.program(op.name);
      if (op.kind == aaa::OperatorKind::Processor) {
        out += hash_line(name + " c " + op.name,
                         aaa::generate_c_executive(program, op, constraints));
      } else {
        aaa::VhdlOptions vhdl;
        vhdl.embed_reconfig_manager = op.kind == aaa::OperatorKind::FpgaStatic &&
                                      constraints.manager == aaa::Placement::Fpga;
        if (op.kind == aaa::OperatorKind::FpgaRegion) vhdl.bus_macro_count = 2;
        out += hash_line(name + " vhdl " + op.name,
                         aaa::generate_vhdl_entity(program, op, vhdl));
      }
    }
    out += hash_line(name + " vhdltop",
                     aaa::generate_vhdl_top(exec, architecture, constraints));
  } catch (const Error& e) {
    out += name + " executive threw " + e.what() + "\n";
  }
  out += hash_line(name + " csv", s.to_csv());
  out += hash_line(name + " text", s.to_string());
  return out;
}

/// Hand-built schedules over an architecture and algorithm whose names
/// all need sanitizing.
struct HandBuilt {
  aaa::AlgorithmGraph algorithm;
  aaa::ArchitectureGraph architecture;
  std::vector<std::pair<std::string, aaa::Schedule>> cases;

  HandBuilt() {
    algorithm.add_operation({"9src", "src", {}, aaa::OpClass::Sensor, {}});
    algorithm.add_compute("a-b", "work");
    algorithm.add_compute("c.d", "work");
    algorithm.add_compute("a_rather_long_operation_name_past_the_column", "work");
    algorithm.add_operation({"sink", "sink", {}, aaa::OpClass::Actuator, {}});
    algorithm.add_dependency("9src", "a-b", 64);
    algorithm.add_dependency("a-b", "c.d", 128);
    algorithm.add_dependency("a-b", "a_rather_long_operation_name_past_the_column", 32);
    algorithm.add_dependency("c.d", "sink", 16);

    architecture.add_operator(
        aaa::OperatorNode{"cpu-0", aaa::OperatorKind::Processor, 1.0, "", ""});
    architecture.add_operator(
        aaa::OperatorNode{"0fpga", aaa::OperatorKind::FpgaStatic, 1.0, "XC2V2000", ""});
    architecture.add_operator(
        aaa::OperatorNode{"D.1", aaa::OperatorKind::FpgaRegion, 1.0, "XC2V2000", "D.1"});
    architecture.add_medium(aaa::MediumNode{"bus-main.0", 100e6, 0});
    for (aaa::NodeId op : architecture.operators())
      architecture.connect(op, architecture.by_name("bus-main.0"));

    cases.emplace_back("hand/instant", instant());
    cases.emplace_back("hand/same_operator", same_operator());
    cases.emplace_back("hand/no_program", no_program());
  }

  aaa::Schedule base() const {
    aaa::Schedule s;
    s.placement.assign(algorithm.size(), util::kNoSymbol);
    return s;
  }

  void place(aaa::Schedule& s, const std::string& op, const std::string& where) const {
    s.placement[algorithm.by_name(op)] = s.intern(where);
  }

  static void compute(aaa::Schedule& s, const std::string& op, const std::string& where,
                      TimeNs start, TimeNs end, const std::string& variant = "") {
    aaa::ScheduledItem item;
    item.kind = aaa::ItemKind::Compute;
    item.label = op;
    item.resource = where;
    item.start = start;
    item.end = end;
    item.variant = variant;
    s.push_item(item);
  }

  static void transfer(aaa::Schedule& s, const std::string& src, const std::string& dst,
                       TimeNs start, TimeNs end, Bytes bytes,
                       const std::string& medium = "bus-main.0") {
    aaa::ScheduledItem item;
    item.kind = aaa::ItemKind::Transfer;
    item.label = src + "->" + dst;
    item.resource = medium;
    item.start = start;
    item.end = end;
    item.src = src;
    item.dst = dst;
    item.bytes = bytes;
    s.push_item(item);
  }

  static void reconfig(aaa::Schedule& s, const std::string& module, TimeNs start, TimeNs end,
                       const std::string& region = "D.1") {
    aaa::ScheduledItem item;
    item.kind = aaa::ItemKind::Reconfig;
    item.label = "load " + module;
    item.resource = region;
    item.start = start;
    item.end = end;
    item.module = module;
    s.push_item(item);
  }

  static void finish(aaa::Schedule& s) {
    s.recompute_totals();
    for (std::size_t i = 0; i < s.size(); ++i)
      if (s.kind(i) == aaa::ItemKind::Reconfig) {
        ++s.reconfig_count;
        s.reconfig_total += s.end(i) - s.start(i);
      }
  }

  // On 0fpga at t=1500: the receive of 9src->a-b completes, a-b computes
  // and c.d's buffer leaves; the items are pushed in an order that the
  // tie classes must reorder (send, compute, receive).
  aaa::Schedule instant() const {
    aaa::Schedule s = base();
    place(s, "9src", "cpu-0");
    place(s, "a-b", "0fpga");
    place(s, "c.d", "cpu-0");
    place(s, "a_rather_long_operation_name_past_the_column", "D.1");
    place(s, "sink", "cpu-0");
    compute(s, "9src", "cpu-0", 0, 1'000);
    compute(s, "a-b", "0fpga", 200, 1'500, "");
    transfer(s, "a-b", "c.d", 1'500, 2'781, 128);
    compute(s, "a-b", "0fpga", 1'500, 2'500, "v-1.a");
    transfer(s, "9src", "a-b", 1'000, 1'500, 64);
    reconfig(s, "mod-1.v", 0, 1'234'567);
    reconfig(s, "", 1'234'567, 2'000'001);
    compute(s, "a_rather_long_operation_name_past_the_column", "D.1", 2'000'001, 2'000'002);
    transfer(s, "a-b", "a_rather_long_operation_name_past_the_column", 2'500, 2'501, 32);
    compute(s, "c.d", "cpu-0", 2'781, 3'000);
    compute(s, "", "cpu-0", 3'000, 3'000);
    compute(s, "sink", "cpu-0", 3'000, 3'999);
    finish(s);
    return s;
  }

  // c.d and its producer a-b both on cpu-0: the transfer's send and
  // receive land in one program.
  aaa::Schedule same_operator() const {
    aaa::Schedule s = base();
    place(s, "9src", "0fpga");
    place(s, "a-b", "cpu-0");
    place(s, "c.d", "cpu-0");
    place(s, "sink", "cpu-0");
    compute(s, "9src", "0fpga", 0, 10);
    transfer(s, "9src", "a-b", 10, 20, 64);
    compute(s, "a-b", "cpu-0", 20, 30);
    transfer(s, "a-b", "c.d", 30, 30, 128);
    compute(s, "c.d", "cpu-0", 30, 40);
    transfer(s, "c.d", "sink", 40, 45, 0);
    compute(s, "sink", "cpu-0", 45, 50);
    finish(s);
    return s;
  }

  // Items on "GHOST" and on a medium the architecture lacks: the exports
  // list them, the executive has no program to put them in.
  aaa::Schedule no_program() const {
    aaa::Schedule s = base();
    place(s, "9src", "cpu-0");
    place(s, "a-b", "GHOST");
    place(s, "c.d", "cpu-0");
    place(s, "sink", "cpu-0");
    compute(s, "9src", "cpu-0", 0, 100);
    transfer(s, "9src", "a-b", 100, 150, 64, "ghost-bus");
    compute(s, "a-b", "GHOST", 150, 300);
    transfer(s, "a-b", "c.d", 300, 400, 128);
    reconfig(s, "mod-1.v", 0, 50, "GHOST");
    compute(s, "c.d", "cpu-0", 400, 450);
    finish(s);
    return s;
  }
};

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(CodegenCorpus, MatchGolden) {
  std::string computed;
  for (const corpus::Case& c : corpus::schedule_corpus())
    computed += outputs(c.name, c.schedule, c.problem->algorithm, c.problem->architecture);
  const HandBuilt hand;
  for (const auto& [name, schedule] : hand.cases)
    computed += outputs(name, schedule, hand.algorithm, hand.architecture);

  std::ifstream in(PDR_CODEGEN_GOLDEN);
  std::stringstream golden;
  golden << in.rdbuf();
  if (computed == golden.str()) return;

  const std::string actual = std::string(PDR_CODEGEN_OUT_DIR) + "/codegen_corpus.actual.txt";
  std::ofstream(actual) << computed;
  const std::vector<std::string> want = split_lines(golden.str());
  const std::vector<std::string> got = split_lines(computed);
  const std::set<std::string> want_set(want.begin(), want.end());
  const std::set<std::string> got_set(got.begin(), got.end());
  std::string diff;
  int shown = 0;
  for (const auto& line : want)
    if (got_set.count(line) == 0 && shown++ < 20) diff += "- " + line + "\n";
  for (const auto& line : got)
    if (want_set.count(line) == 0 && shown++ < 40) diff += "+ " + line + "\n";
  ADD_FAILURE() << "codegen outputs differ from " << PDR_CODEGEN_GOLDEN << " (" << want.size()
                << " golden lines, " << got.size() << " computed); wrote " << actual << "\n"
                << diff;
}

}  // namespace
}  // namespace pdr
