#include <gtest/gtest.h>

#include "aaa/constraints.hpp"
#include "lint/constraint_rules.hpp"
#include "util/error.hpp"

namespace pdr::aaa {
namespace {

const char* kGood = R"(
# full-featured constraints file
device XC2V2000
port selectmap
manager cpu
builder fpga
prefetch history

region D1 {
  width 5
  margin 1
  seu_budget 20
}
region D2 {
  width auto
}

dynamic qpsk {
  region D1
  kind qpsk_mapper
  load startup
  unload eager
}
dynamic qam16 {
  region D1
  kind qam16_mapper
  param n 64
  param width 16
}
dynamic filt {
  region D2
  kind fir
  param taps 16
}

exclude qpsk qam16
relation qpsk then qam16
relation qam16 then qpsk
)";

TEST(Constraints, ParsesFullExample) {
  const ConstraintSet set = parse_constraints(kGood);
  EXPECT_EQ(set.device, "XC2V2000");
  EXPECT_EQ(set.port, PortChoice::SelectMap);
  EXPECT_EQ(set.manager, Placement::Cpu);
  EXPECT_EQ(set.builder, Placement::Fpga);
  EXPECT_EQ(set.prefetch, PrefetchChoice::History);
  ASSERT_EQ(set.regions.size(), 2u);
  EXPECT_EQ(set.regions[0].width, 5);
  EXPECT_EQ(set.regions[0].margin, 1);
  EXPECT_EQ(set.regions[0].seu_budget_ms, 20);
  EXPECT_EQ(set.regions[1].width, -1);
  EXPECT_EQ(set.regions[1].seu_budget_ms, -1);  // no budget by default
  ASSERT_EQ(set.modules.size(), 3u);
  EXPECT_EQ(set.modules[0].load, LoadPolicy::Startup);
  EXPECT_EQ(set.modules[0].unload, UnloadPolicy::Eager);
  EXPECT_EQ(set.modules[1].params.at("n"), 64);
  EXPECT_EQ(set.modules[1].params.at("width"), 16);
  ASSERT_EQ(set.exclusions.size(), 1u);
  EXPECT_EQ(set.exclusions[0], (std::pair<std::string, std::string>{"qpsk", "qam16"}));
  ASSERT_EQ(set.relations.size(), 2u);
}

TEST(Constraints, LookupHelpers) {
  const ConstraintSet set = parse_constraints(kGood);
  EXPECT_NE(set.find_region("D1"), nullptr);
  EXPECT_EQ(set.find_region("D9"), nullptr);
  EXPECT_NE(set.find_module("qpsk"), nullptr);
  EXPECT_EQ(set.find_module("zzz"), nullptr);
  EXPECT_EQ(set.modules_of("D1").size(), 2u);
  EXPECT_EQ(set.modules_of("D2").size(), 1u);
}

TEST(Constraints, WriteParseRoundTrip) {
  const ConstraintSet a = parse_constraints(kGood);
  const ConstraintSet b = parse_constraints(write_constraints(a));
  EXPECT_EQ(b.device, a.device);
  EXPECT_EQ(b.port, a.port);
  EXPECT_EQ(b.manager, a.manager);
  EXPECT_EQ(b.prefetch, a.prefetch);
  EXPECT_EQ(b.regions.size(), a.regions.size());
  EXPECT_EQ(b.regions[0].seu_budget_ms, a.regions[0].seu_budget_ms);
  EXPECT_EQ(b.modules.size(), a.modules.size());
  EXPECT_EQ(b.modules[1].params, a.modules[1].params);
  EXPECT_EQ(b.exclusions, a.exclusions);
  EXPECT_EQ(b.relations, a.relations);
}

TEST(Constraints, SliceColumnWidthsParseAndRoundTrip) {
  // S1 units bugfix: `width 4sc` authors the region in slice columns
  // (the unit the Modular Design rules speak); the CLB-column equivalent
  // is derived by rounding up, and the writer preserves the authored
  // unit.
  const char* text =
      "device XC2V2000\n"
      "region D1 { width 4sc }\n"
      "dynamic qpsk { region D1 kind qpsk_mapper }\n";
  const ConstraintSet set = parse_constraints(text);
  ASSERT_EQ(set.regions.size(), 1u);
  EXPECT_EQ(set.regions[0].width_slice_cols, 4);
  EXPECT_EQ(set.regions[0].width, 2);  // 4 slice cols = 2 CLB cols
  const std::string written = write_constraints(set);
  EXPECT_NE(written.find("width 4sc"), std::string::npos) << written;
  const ConstraintSet again = parse_constraints(written);
  EXPECT_EQ(again.regions[0].width_slice_cols, 4);
  EXPECT_EQ(again.regions[0].width, 2);
}

TEST(Constraints, SliceColumnWidthBelowMinimumRejected) {
  // 3sc parses but fails validation with PDR021: below the 4-slice-column
  // Modular Design floor (and not even a whole number of CLB columns).
  const char* text =
      "device XC2V2000\n"
      "region D1 { width 3sc }\n"
      "dynamic qpsk { region D1 kind qpsk_mapper }\n";
  try {
    lint::validate_constraints(parse_constraints(text));
    FAIL() << "width 3sc must fail validation";
  } catch (const pdr::Error& e) {
    EXPECT_NE(std::string(e.what()).find("PDR021"), std::string::npos) << e.what();
  }
  // Parsing alone keeps the authored value for linting.
  const ConstraintSet raw = parse_constraints(text);
  EXPECT_EQ(raw.regions[0].width_slice_cols, 3);
}

TEST(Constraints, CommentsAndBlankLinesIgnored) {
  const ConstraintSet set = parse_constraints(
      "# leading comment\n\ndevice XC2V1000   # trailing comment\n"
      "region R { width 2 }\ndynamic m { region R\n kind fir }\n");
  EXPECT_EQ(set.device, "XC2V1000");
  EXPECT_EQ(set.regions.size(), 1u);
}

struct BadCase {
  const char* label;
  const char* text;
};

// Without a printer gtest shows the param as the bytes of its two pointers,
// so the ctest name discovered from --gtest_list_tests changes every run.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.label; }

class BadConstraintsTest : public ::testing::TestWithParam<BadCase> {};

TEST_P(BadConstraintsTest, RejectedWithLineNumber) {
  try {
    parse_constraints(GetParam().text);
    FAIL() << GetParam().label;
  } catch (const pdr::Error& e) {
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos) << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BadConstraintsTest,
    ::testing::Values(
        BadCase{"unknown_directive", "frobnicate yes\n"},
        BadCase{"bad_port", "port usb\n"},
        BadCase{"bad_placement", "manager gpu\n"},
        BadCase{"bad_prefetch", "prefetch psychic\n"},
        BadCase{"missing_arg", "device\n"},
        BadCase{"unterminated_block", "region D1 {\n  width 2\n"},
        BadCase{"missing_brace", "region D1\n"},
        BadCase{"bad_int", "region D1 {\n  width five\n}\ndynamic m { region D1\n kind fir }\n"},
        BadCase{"zero_seu_budget",
                "region D1 {\n  width 2\n  seu_budget 0\n}\ndynamic m { region D1\n kind fir }\n"},
        BadCase{"negative_seu_budget",
                "region D1 {\n  width 2\n  seu_budget -5\n}\ndynamic m { region D1\n kind fir }\n"},
        BadCase{"bad_load", "region D1 { width 2 }\ndynamic m {\n region D1\n kind fir\n load maybe\n}\n"},
        BadCase{"bad_relation_keyword",
                "region D1 { width 2 }\ndynamic a { region D1\n kind fir }\n"
                "dynamic b { region D1\n kind fir }\nrelation a before b\n"}),
    [](const ::testing::TestParamInfo<BadCase>& info) { return info.param.label; });

TEST(Constraints, ValidationCatchesDanglingReferences) {
  const auto validate = [](const char* text) {
    lint::validate_constraints(parse_constraints(text));
  };
  // Module in unknown region.
  EXPECT_THROW(validate("dynamic m {\n region ghost\n kind fir\n}\n"), pdr::Error);
  // Region without modules.
  EXPECT_THROW(validate("region D1 { width 2 }\n"), pdr::Error);
  // Exclusion of unknown module.
  EXPECT_THROW(validate("region D1 { width 2 }\ndynamic m { region D1\n kind fir }\n"
                        "exclude m ghost\n"),
               pdr::Error);
  // Self exclusion.
  EXPECT_THROW(validate("region D1 { width 2 }\ndynamic m { region D1\n kind fir }\n"
                        "exclude m m\n"),
               pdr::Error);
  // Duplicate module.
  EXPECT_THROW(validate("region D1 { width 2 }\ndynamic m { region D1\n kind fir }\n"
                        "dynamic m { region D1\n kind fir }\n"),
               pdr::Error);
}

TEST(Constraints, KeywordNames) {
  EXPECT_STREQ(to_keyword(PortChoice::Icap), "icap");
  EXPECT_STREQ(to_keyword(Placement::Cpu), "cpu");
  EXPECT_STREQ(to_keyword(PrefetchChoice::Schedule), "schedule");
  EXPECT_STREQ(to_keyword(LoadPolicy::Startup), "startup");
  EXPECT_STREQ(to_keyword(UnloadPolicy::Lazy), "lazy");
}

TEST(Constraints, DefaultsMatchPaperCaseA) {
  const ConstraintSet set;
  EXPECT_EQ(set.port, PortChoice::Icap);
  EXPECT_EQ(set.manager, Placement::Fpga);
  EXPECT_EQ(set.builder, Placement::Fpga);
  EXPECT_EQ(set.prefetch, PrefetchChoice::Schedule);
}

}  // namespace
}  // namespace pdr::aaa
