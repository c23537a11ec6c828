#include <gtest/gtest.h>

#include "aaa/adequation.hpp"
#include "aaa/project_io.hpp"
#include "util/error.hpp"

namespace pdr::aaa {
namespace {

const char* kProject = R"(
project demo_tx

algorithm {
  sensor   src   kind bit_source
  compute  fft   kind ifft  param n 64  param width 16
  conditioned mod {
    alt qpsk  kind qpsk_mapper
    alt qam16 kind qam16_mapper  param n 4
  }
  actuator out   kind interface_in_out
  dep src -> mod bytes 16
  dep mod -> fft bytes 64
  dep fft -> out bytes 256
}

architecture {
  processor   CPU speed 2.0
  fpga_static F1  device XC2V2000
  fpga_region D1  device XC2V2000 region D1
  medium BUS bandwidth 100000000 latency 100
  connect CPU BUS
  connect F1 BUS
  connect D1 BUS
}

durations {
  set bit_source processor 2000
  set bit_source fpga_static 1000
  set ifft processor 60000
  set ifft fpga_static 3200
  set qpsk_mapper fpga_region 1000
  set qpsk_mapper processor 15000
  set qam16_mapper fpga_region 1200
  set qam16_mapper processor 22000
  set interface_in_out processor 500
  set interface_in_out fpga_static 500
  set_for ifft F1 3000
}
)";

TEST(ProjectIo, ParsesAllSections) {
  const Project p = parse_project(kProject);
  EXPECT_EQ(p.name, "demo_tx");
  EXPECT_EQ(p.algorithm.size(), 4u);
  EXPECT_EQ(p.architecture.operators().size(), 3u);
  EXPECT_EQ(p.architecture.media().size(), 1u);

  const Operation& fft = p.algorithm.op(p.algorithm.by_name("fft"));
  EXPECT_EQ(fft.kind, "ifft");
  EXPECT_EQ(fft.params.at("n"), 64);
  EXPECT_EQ(fft.params.at("width"), 16);

  const Operation& mod = p.algorithm.op(p.algorithm.by_name("mod"));
  ASSERT_TRUE(mod.conditioned());
  EXPECT_EQ(mod.alternatives[1].params.at("n"), 4);

  const OperatorNode& cpu = p.architecture.op(p.architecture.by_name("CPU"));
  EXPECT_DOUBLE_EQ(cpu.speed_factor, 2.0);
  const OperatorNode& d1 = p.architecture.op(p.architecture.by_name("D1"));
  EXPECT_EQ(d1.region, "D1");
  EXPECT_EQ(d1.device, "XC2V2000");

  // Name-level duration beats the kind entry.
  EXPECT_EQ(p.durations.lookup("ifft", p.architecture.op(p.architecture.by_name("F1"))), 3000);
}

TEST(ProjectIo, WriteParseRoundTrip) {
  const Project a = parse_project(kProject);
  const Project b = parse_project(write_project(a));
  EXPECT_EQ(b.name, a.name);
  EXPECT_EQ(b.algorithm.size(), a.algorithm.size());
  EXPECT_EQ(b.algorithm.digraph().edge_count(), a.algorithm.digraph().edge_count());
  EXPECT_EQ(b.architecture.operators().size(), a.architecture.operators().size());
  EXPECT_EQ(b.architecture.media().size(), a.architecture.media().size());
  EXPECT_EQ(b.durations.entries().size(), a.durations.entries().size());

  // The round-tripped project produces the identical schedule.
  Adequation ad_a(a.algorithm, a.architecture, a.durations);
  Adequation ad_b(b.algorithm, b.architecture, b.durations);
  const Schedule sa = ad_a.run();
  const Schedule sb = ad_b.run();
  EXPECT_EQ(sa.makespan, sb.makespan);
  EXPECT_EQ(sa.size(), sb.size());
}

TEST(ProjectIo, ScheduleRunsOnParsedProject) {
  const Project p = parse_project(kProject);
  Adequation adequation(p.algorithm, p.architecture, p.durations);
  const Schedule s = adequation.run();
  validate_schedule(s, p.algorithm, p.architecture);
  EXPECT_GT(s.makespan, 0);
}

struct BadProject {
  const char* label;
  const char* text;
};

// Without a printer gtest shows the param as the bytes of its two pointers,
// so the ctest name discovered from --gtest_list_tests changes every run.
void PrintTo(const BadProject& c, std::ostream* os) { *os << c.label; }

class BadProjectTest : public ::testing::TestWithParam<BadProject> {};

TEST_P(BadProjectTest, RejectedWithLineInfo) {
  try {
    parse_project(GetParam().text);
    FAIL() << GetParam().label;
  } catch (const pdr::Error& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos) << e.what();
  } catch (const std::exception&) {
    // Validation errors from the graphs are acceptable too.
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BadProjectTest,
    ::testing::Values(
        BadProject{"no_algorithm", "project x\narchitecture {\n processor P\n }\n"},
        BadProject{"no_architecture",
                   "project x\nalgorithm {\n sensor s kind bit_source\n }\n"},
        BadProject{"unknown_section", "wibble {\n}\n"},
        BadProject{"bad_dep_arrow",
                   "algorithm {\n sensor a kind x\n compute b kind x\n dep a to b bytes 4\n }\n"},
        BadProject{"bad_int",
                   "algorithm {\n compute a kind x param n many\n }\narchitecture {\n processor "
                   "P\n }\n"},
        BadProject{"unterminated", "algorithm {\n sensor s kind x\n"},
        BadProject{"bad_operator_kind",
                   "algorithm {\n sensor s kind x\n }\narchitecture {\n gpu G\n }\n"}),
    [](const ::testing::TestParamInfo<BadProject>& info) { return info.param.label; });

TEST(ProjectIo, DisconnectedArchitectureRejected) {
  EXPECT_THROW(parse_project("algorithm {\n sensor s kind x\n }\n"
                             "architecture {\n processor A\n processor B\n }\n"),
               pdr::Error);
}

}  // namespace
}  // namespace pdr::aaa
