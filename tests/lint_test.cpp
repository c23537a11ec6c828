// pdr::lint coverage: every rule code fires on a crafted-bad input, and
// every shipped example checks clean.
//
// Constraints-family rules (PDR000..PDR017) are driven from the fixture
// files under tests/fixtures/lint/ — the same files the CI `pdrflow
// check` job runs — so the files and the library are tested as one.
// Floorplan, schedule and executive rules are driven from hand-built bad
// objects: the real flow never produces them, which is the point.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "aaa/adequation.hpp"
#include "aaa/constraints.hpp"
#include "aaa/macrocode.hpp"
#include "executive_builder.hpp"
#include "fabric/device.hpp"
#include "lint/lint.hpp"
#include "synth/flow.hpp"
#include "util/error.hpp"

namespace pdr::lint {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

Report check_fixture(const std::string& name) {
  return check_text(read_file(std::filesystem::path(PDR_FIXTURES_DIR) / name));
}

// ---------------------------------------------------------------- examples

TEST(LintExamples, AllShippedExamplesAreClean) {
  std::size_t seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(PDR_EXAMPLES_DIR)) {
    const auto ext = entry.path().extension();
    if (ext != ".constraints" && ext != ".project") continue;
    ++seen;
    const Report report = check_text(read_file(entry.path()));
    EXPECT_TRUE(report.empty()) << entry.path() << ":\n" << report.to_text();
  }
  EXPECT_GE(seen, 2u) << "expected shipped .constraints/.project examples";
}

TEST(LintExamples, CaseStudyConstraintsAreClean) {
  // The textual example stays lint-clean end to end, like `pdrflow simulate`.
  const Report report =
      check_text(read_file(std::filesystem::path(PDR_EXAMPLES_DIR) / "mccdma.constraints"));
  EXPECT_TRUE(report.empty()) << report.to_text();
}

// ------------------------------------------------- constraints (fixtures)

struct FixtureCase {
  const char* file;
  Rule rule;
};

// Without a printer gtest shows the param as the bytes of its pointer and
// enum, so the full ctest name discovered from --gtest_list_tests changes
// every run.
void PrintTo(const FixtureCase& c, std::ostream* os) { *os << c.file; }

class LintFixture : public ::testing::TestWithParam<FixtureCase> {};

TEST_P(LintFixture, FiresItsRuleCode) {
  const FixtureCase& fc = GetParam();
  const Report report = check_fixture(fc.file);
  EXPECT_TRUE(report.has(fc.rule))
      << fc.file << " must fire " << rule_id(fc.rule) << "; got:\n"
      << report.to_text();
}

INSTANTIATE_TEST_SUITE_P(
    ConstraintsFamily, LintFixture,
    ::testing::Values(
        FixtureCase{"pdr000_parse_error.constraints", Rule::ParseError},
        FixtureCase{"pdr000_parse_error.project", Rule::ParseError},
        FixtureCase{"pdr001_duplicate_region.constraints", Rule::DuplicateRegion},
        FixtureCase{"pdr002_invalid_region_width.constraints", Rule::InvalidRegionWidth},
        FixtureCase{"pdr003_negative_region_margin.constraints", Rule::NegativeRegionMargin},
        FixtureCase{"pdr004_duplicate_module.constraints", Rule::DuplicateModule},
        FixtureCase{"pdr005_undeclared_region.constraints", Rule::UndeclaredRegion},
        FixtureCase{"pdr006_missing_module_kind.constraints", Rule::MissingModuleKind},
        FixtureCase{"pdr007_empty_region.constraints", Rule::EmptyRegion},
        FixtureCase{"pdr008_exclusion_unknown_module.constraints",
                    Rule::ExclusionUnknownModule},
        FixtureCase{"pdr009_self_exclusion.constraints", Rule::SelfExclusion},
        FixtureCase{"pdr010_duplicate_exclusion.constraints", Rule::DuplicateExclusion},
        FixtureCase{"pdr012_relation_unknown_module.constraints",
                    Rule::RelationUnknownModule},
        FixtureCase{"pdr013_self_relation.constraints", Rule::SelfRelation},
        FixtureCase{"pdr014_duplicate_relation.constraints", Rule::DuplicateRelation},
        FixtureCase{"pdr015_contradictory_policy.constraints", Rule::ContradictoryPolicy},
        FixtureCase{"pdr016_unknown_device.constraints", Rule::UnknownDevice},
        FixtureCase{"pdr017_unknown_operator_kind.constraints",
                    Rule::UnknownOperatorKind},
        FixtureCase{"pdr021_region_too_narrow.constraints", Rule::RegionTooNarrow}),
    [](const ::testing::TestParamInfo<FixtureCase>& info) {
      std::string name = info.param.file;
      for (char& c : name)
        if (c == '.' || c == '/') c = '_';
      return name;
    });

TEST(LintConstraints, ValidateReportsEveryViolationAtOnce) {
  // validate_constraints throws once, listing ALL errors with their rule
  // codes in rule order, instead of stopping at the first.
  const std::string text = R"(
    device XC9999
    region D1 { width 0 }
    dynamic qpsk { region D2 kind qpsk_mapper }
  )";
  try {
    validate_constraints(aaa::parse_constraints(text));
    FAIL() << "validate_constraints must throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "ConstraintSet: 4 constraint violations:\n"
              "  PDR016: unknown device 'XC9999'\n"
              "  PDR002: region 'D1' has invalid width 0\n"
              "  PDR005: module 'qpsk' names undeclared region 'D2'\n"
              "  PDR007: region 'D1' has no dynamic modules");
  }
}

TEST(LintConstraints, SniffInputClassifiesBothKinds) {
  EXPECT_EQ(sniff_input("# comment\nproject x\n"), InputKind::Project);
  EXPECT_EQ(sniff_input("device XC2V2000\n"), InputKind::Constraints);
  EXPECT_EQ(sniff_input(""), InputKind::Constraints);
}

TEST(LintReport, JsonExportCarriesCodesAndCounts) {
  const Report report = check_fixture("pdr001_duplicate_region.constraints");
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"PDR001\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"errors\""), std::string::npos) << json;
}

// ------------------------------------------------------------- floorplan

fabric::Region make_region(const std::string& name, int lo, int hi) {
  fabric::Region r;
  r.name = name;
  r.col_lo = lo;
  r.col_hi = hi;
  r.reconfigurable = true;
  return r;
}

TEST(LintFloorplan, Pdr020RegionOverlap) {
  const auto device = fabric::device_by_name("XC2V1000");
  const Report report =
      check_floorplan(device, {make_region("D1", 0, 3), make_region("D2", 2, 5)});
  EXPECT_TRUE(report.has(Rule::RegionOverlap)) << report.to_text();
}

TEST(LintFloorplan, Pdr021RegionTooNarrow) {
  const auto device = fabric::device_by_name("XC2V1000");
  const Report report = check_floorplan(device, {make_region("D1", 4, 4)});
  EXPECT_TRUE(report.has(Rule::RegionTooNarrow)) << report.to_text();
}

TEST(LintFloorplan, Pdr022RegionOutOfBounds) {
  const auto device = fabric::device_by_name("XC2V1000");
  const Report report =
      check_floorplan(device, {make_region("D1", device.clb_cols - 1, device.clb_cols + 2)});
  EXPECT_TRUE(report.has(Rule::RegionOutOfBounds)) << report.to_text();
}

TEST(LintFloorplan, Pdr023BusMacroOffBoundary) {
  const auto device = fabric::device_by_name("XC2V1000");
  fabric::Region r = make_region("D1", 4, 7);
  fabric::BusMacro bm;
  bm.name = "bm_mid";
  bm.boundary_col = 6;  // interior of the region, not an edge
  r.bus_macros.push_back(bm);
  const Report report = check_floorplan(device, {r});
  EXPECT_TRUE(report.has(Rule::BusMacroOffBoundary)) << report.to_text();
}

synth::DesignBundle small_bundle() {
  synth::ModularDesignFlow flow(fabric::device_by_name("XC2V1000"));
  flow.add_region("D1", {synth::ModuleSpec{"qpsk", "qpsk_mapper", {}}});
  return flow.run();
}

TEST(LintFloorplan, Pdr024VariantOverflow) {
  synth::DesignBundle bundle = small_bundle();
  ASSERT_TRUE(check_bundle(bundle).empty());
  bundle.dynamic_variants.at("D1").front().usage.slices =
      bundle.device.total_slices() + 1;
  EXPECT_TRUE(check_bundle(bundle).has(Rule::VariantOverflow));
}

TEST(LintFloorplan, Pdr025StaticOverflow) {
  synth::DesignBundle bundle = small_bundle();
  synth::ModuleArtifact oversized;
  oversized.name = "giant_static";
  oversized.usage.slices = bundle.device.total_slices() + 1;
  bundle.static_modules.push_back(oversized);
  EXPECT_TRUE(check_bundle(bundle).has(Rule::StaticOverflow));
}

TEST(LintFloorplan, CleanProgrammaticFloorplanPasses) {
  // Adjacent minimum-width regions with bus macros on both edges: the
  // tightest legal packing — nothing in PDR020..PDR023 may fire.
  const auto device = fabric::device_by_name("XC2V1000");
  fabric::Region left = make_region("D1", 2, 3);
  fabric::Region right = make_region("D2", 4, 5);
  fabric::BusMacro bm_left;
  bm_left.name = "bm_l";
  bm_left.boundary_col = 2;  // bridges static column 1 | region column 2
  left.bus_macros.push_back(bm_left);
  fabric::BusMacro bm_right;
  bm_right.name = "bm_r";
  bm_right.boundary_col = 6;  // bridges region column 5 | static column 6
  right.bus_macros.push_back(bm_right);
  const Report report = check_floorplan(device, {left, right});
  EXPECT_TRUE(report.empty()) << report.to_text();
}

TEST(LintFloorplan, EveryViolationOfABrokenPlanReportedTogether) {
  // One audit pass over a thoroughly broken plan: an overlapping pair, a
  // one-column region and an out-of-bounds region — all flagged at once,
  // not first-error-wins.
  const auto device = fabric::device_by_name("XC2V1000");
  const Report report = check_floorplan(
      device, {make_region("D1", 0, 3), make_region("D2", 2, 5), make_region("D3", 8, 8),
               make_region("D4", device.clb_cols - 1, device.clb_cols)});
  EXPECT_TRUE(report.has(Rule::RegionOverlap)) << report.to_text();
  EXPECT_TRUE(report.has(Rule::RegionTooNarrow)) << report.to_text();
  EXPECT_TRUE(report.has(Rule::RegionOutOfBounds)) << report.to_text();
  EXPECT_GE(report.errors(), 3u);
}

TEST(LintFloorplan, Pdr023BusMacroOnDeviceEdgeHasNoStaticSide) {
  const auto device = fabric::device_by_name("XC2V1000");
  fabric::Region r = make_region("D1", 0, 2);  // flush with the device edge
  fabric::BusMacro bm;
  bm.name = "bm_edge";
  bm.boundary_col = 0;  // the "far side" would be column -1
  r.bus_macros.push_back(bm);
  const Report report = check_floorplan(device, {r});
  ASSERT_TRUE(report.has(Rule::BusMacroOffBoundary)) << report.to_text();
  // The witness names the nonexistent neighbour column, not just "edge":
  // a macro at boundary 0 would bridge columns -1 | 0.
  EXPECT_NE(report.to_text().find("column -1 does not exist"), std::string::npos)
      << report.to_text();
}

TEST(LintFloorplan, Pdr023RightDeviceEdgeWitnessNamesMissingColumn) {
  const auto device = fabric::device_by_name("XC2V1000");
  fabric::Region r = make_region("D1", device.clb_cols - 3, device.clb_cols - 1);
  fabric::BusMacro bm;
  bm.name = "bm_right_edge";
  bm.boundary_col = device.clb_cols;  // far side would be column clb_cols
  r.bus_macros.push_back(bm);
  const Report report = check_floorplan(device, {r});
  ASSERT_TRUE(report.has(Rule::BusMacroOffBoundary)) << report.to_text();
  EXPECT_NE(report.to_text().find("column " + std::to_string(device.clb_cols) +
                                  " does not exist"),
            std::string::npos)
      << report.to_text();
}

TEST(LintFloorplan, Pdr021WitnessReportsBothUnits) {
  // The S1 unit bugfix: the narrow-region witness must speak both
  // slice columns and CLB columns so 'width 1' vs 'width 2sc' confusion
  // is visible in the diagnostic itself.
  const auto device = fabric::device_by_name("XC2V1000");
  const Report report = check_floorplan(device, {make_region("D1", 4, 4)});
  ASSERT_TRUE(report.has(Rule::RegionTooNarrow)) << report.to_text();
  const std::string text = report.to_text();
  EXPECT_NE(text.find("2 slice-columns"), std::string::npos) << text;
  EXPECT_NE(text.find("1 CLB column"), std::string::npos) << text;
}

TEST(LintFloorplan, Pdr023BusMacroIntoNeighbouringRegionFlagged) {
  // A macro on the shared boundary of two reconfigurable regions has no
  // static side to bridge to either.
  const auto device = fabric::device_by_name("XC2V1000");
  fabric::Region left = make_region("D1", 2, 3);
  fabric::Region right = make_region("D2", 4, 5);
  fabric::BusMacro bm;
  bm.name = "bm_shared";
  bm.boundary_col = 4;  // left edge of D2, but the far side is D1
  right.bus_macros.push_back(bm);
  const Report report = check_floorplan(device, {left, right});
  ASSERT_TRUE(report.has(Rule::BusMacroOffBoundary)) << report.to_text();
  EXPECT_NE(report.to_text().find("another"), std::string::npos);
}

// ------------------------------------------------------ report ordering

TEST(LintReport, RenderingIsMergeOrderInvariant) {
  // The canonical-ordering contract: text and JSON depend only on the
  // diagnostic *set*, never on rule-execution or merge order. This is
  // what makes `pdrflow check --json` diffs and the explorer's merged
  // auto-lint byte-stable across --jobs.
  const Diagnostic warn{Rule::DataCrossesReconfig, Severity::Warning, "resource D1",
                        "data crosses a reload", "buffer in the static part"};
  const Diagnostic err_a{Rule::ReconfigDuringExecute, Severity::Error, "resource D1",
                         "load overlaps execution", ""};
  const Diagnostic err_b{Rule::UseBeforeConfigure, Severity::Error, "resource D2",
                         "never configured", ""};

  Report forward;
  forward.add(warn);
  forward.add(err_b);
  forward.add(err_a);
  Report backward;
  backward.add(err_a);
  backward.add(err_b);
  backward.add(warn);

  EXPECT_EQ(forward.to_text(), backward.to_text());
  EXPECT_EQ(forward.to_json(), backward.to_json());

  // Text groups by severity (errors first), then canonical order; the
  // warning added first still renders last.
  const std::string text = forward.to_text();
  const auto pos_a = text.find("PDR100");
  const auto pos_b = text.find("PDR102");
  const auto pos_w = text.find("PDR106");
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  ASSERT_NE(pos_w, std::string::npos);
  EXPECT_LT(pos_a, pos_b);
  EXPECT_LT(pos_b, pos_w);

  // JSON is fully canonical (code order), ignoring severity grouping.
  const std::string json = forward.to_json();
  EXPECT_LT(json.find("PDR100"), json.find("PDR102"));
  EXPECT_LT(json.find("PDR102"), json.find("PDR106"));
}

TEST(LintReport, IdenticalRuleAndLocationOrderedByMessage) {
  Report a;
  a.add(Rule::RegionOverlap, Severity::Error, "region D1", "zeta", "");
  a.add(Rule::RegionOverlap, Severity::Error, "region D1", "alpha", "");
  Report b;
  b.add(Rule::RegionOverlap, Severity::Error, "region D1", "alpha", "");
  b.add(Rule::RegionOverlap, Severity::Error, "region D1", "zeta", "");
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_LT(a.to_text().find("alpha"), a.to_text().find("zeta"));
}

// -------------------------------------------------------------- schedule

using aaa::ItemKind;
using aaa::ScheduledItem;

ScheduledItem item(ItemKind kind, const std::string& label, const std::string& resource,
                   TimeNs start, TimeNs end) {
  ScheduledItem it;
  it.kind = kind;
  it.label = label;
  it.resource = resource;
  it.start = start;
  it.end = end;
  return it;
}

aaa::ArchitectureGraph region_arch() {
  aaa::ArchitectureGraph arch;
  arch.add_operator({"CPU", aaa::OperatorKind::Processor, 1.0, "", ""});
  arch.add_operator({"D1", aaa::OperatorKind::FpgaRegion, 1.0, "XC2V2000", "D1"});
  arch.add_operator({"D2", aaa::OperatorKind::FpgaRegion, 1.0, "XC2V2000", "D2"});
  return arch;
}

Report check(const aaa::Schedule& schedule, const aaa::AlgorithmGraph& algorithm,
             const aaa::ConstraintSet* constraints = nullptr) {
  const aaa::ArchitectureGraph arch = region_arch();
  return check_schedule(schedule, algorithm, arch, constraints);
}

TEST(LintSchedule, Pdr040ResourceOverlap) {
  aaa::Schedule s;
  s.push_item(item(ItemKind::Compute, "a", "CPU", 0, 100));
  s.push_item(item(ItemKind::Compute, "b", "CPU", 50, 150));
  EXPECT_TRUE(check(s, {}).has(Rule::ResourceOverlap));
}

TEST(LintSchedule, Pdr040AndPdr046PairEveryItemNestedInALongOne) {
  // B and C both lie inside A but not in each other; each pair with A is
  // an overlap, and on the port each is a second load in flight.
  const auto messages = [](const Report& report, Rule rule) {
    std::vector<std::string> out;
    for (const auto& d : report.diagnostics())
      if (d.rule == rule) out.push_back(d.message);
    return out;
  };
  aaa::Schedule s;
  s.push_item(item(ItemKind::Compute, "A", "CPU", 0, 10));
  s.push_item(item(ItemKind::Compute, "B", "CPU", 1, 2));
  s.push_item(item(ItemKind::Compute, "C", "CPU", 3, 4));
  const auto overlaps = messages(check(s, {}), Rule::ResourceOverlap);
  ASSERT_EQ(overlaps.size(), 2u);
  EXPECT_EQ(overlaps[0], "items 'A' [0..10 ns] and 'B' [1..2 ns] overlap on resource 'CPU'");
  EXPECT_EQ(overlaps[1], "items 'A' [0..10 ns] and 'C' [3..4 ns] overlap on resource 'CPU'");

  aaa::Schedule loads;
  const std::tuple<const char*, const char*, TimeNs, TimeNs> nested[] = {
      {"a", "D1", 0, 10}, {"b", "D2", 1, 2}, {"c", "D2", 3, 4}};
  for (const auto& [module, region, start, end] : nested) {
    ScheduledItem load = item(ItemKind::Reconfig, std::string("load ") + module, region, start, end);
    load.module = module;
    loads.push_item(load);
  }
  const Report report = check(loads, {});
  EXPECT_FALSE(report.has(Rule::ResourceOverlap));
  const auto port = messages(report, Rule::PortOverlap);
  ASSERT_EQ(port.size(), 2u);
  EXPECT_NE(port[0].find("'load a' [0..10 ns] and 'load b' [1..2 ns]"), std::string::npos);
  EXPECT_NE(port[1].find("'load a' [0..10 ns] and 'load c' [3..4 ns]"), std::string::npos);
}

TEST(LintSchedule, Pdr041DependencyViolation) {
  aaa::AlgorithmGraph g;
  const auto a = g.add_sensor("a");
  const auto b = g.add_actuator("b");
  g.add_dependency(a, b, 0);
  aaa::Schedule s;
  ScheduledItem ia = item(ItemKind::Compute, "a", "CPU", 100, 200);
  ia.op = a;
  ScheduledItem ib = item(ItemKind::Compute, "b", "CPU", 0, 50);
  ib.op = b;
  s.push_item(ia);
  s.push_item(ib);
  EXPECT_TRUE(check(s, g).has(Rule::DependencyViolation));
}

TEST(LintSchedule, Pdr041TransferPayloadAndWindow) {
  // The transfer serving a -> b carries 32 of the edge's 64 bytes and
  // ends after b starts: two PDR041 findings, and validate_schedule
  // throws on the first of them.
  aaa::AlgorithmGraph g;
  const auto a = g.add_sensor("a");
  const auto b = g.add_actuator("b");
  g.add_dependency(a, b, 64);
  aaa::Schedule s;
  ScheduledItem ia = item(ItemKind::Compute, "a", "CPU", 0, 100);
  ia.op = a;
  ScheduledItem ib = item(ItemKind::Compute, "b", "D1", 150, 250);
  ib.op = b;
  ScheduledItem hop = item(ItemKind::Transfer, "a->b", "BUS", 100, 200);
  hop.src = "a";
  hop.dst = "b";
  hop.bytes = 32;
  hop.edge = g.digraph().edge_ids().front();
  for (const ScheduledItem& i : {ia, ib, hop}) s.push_item(i);
  std::vector<std::string> messages;
  const Report report = check(s, g);
  for (const auto& d : report.diagnostics())
    if (d.rule == Rule::DependencyViolation) messages.push_back(d.message);
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_EQ(messages[0],
            "transfer 'a->b' [100..200 ns] carries 32 bytes, but dependency 'a' -> 'b' carries 64");
  EXPECT_EQ(messages[1],
            "transfer 'a->b' [100..200 ns] is not between producer 'a' and consumer 'b'");
  try {
    aaa::validate_schedule(s, g, region_arch());
    ADD_FAILURE() << "validate_schedule accepted a short transfer";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("carries the wrong payload"), std::string::npos);
  }
}

TEST(LintSchedule, Pdr042WrongModuleLoaded) {
  aaa::Schedule s;
  ScheduledItem load = item(ItemKind::Reconfig, "load qpsk", "D1", 0, 100);
  load.module = "qpsk";
  ScheduledItem run = item(ItemKind::Compute, "mod", "D1", 200, 300);
  run.variant = "qam16";
  s.push_item(load);
  s.push_item(run);
  EXPECT_TRUE(check(s, {}).has(Rule::WrongModuleLoaded));
}

TEST(LintSchedule, Pdr043ComputeDuringReconfig) {
  aaa::Schedule s;
  ScheduledItem load = item(ItemKind::Reconfig, "load qpsk", "D1", 0, 100);
  load.module = "qpsk";
  ScheduledItem run = item(ItemKind::Compute, "mod", "D1", 50, 80);
  run.variant = "qpsk";
  s.push_item(load);
  s.push_item(run);
  EXPECT_TRUE(check(s, {}).has(Rule::ComputeDuringReconfig));
}

TEST(LintSchedule, Pdr044ExclusionOverlap) {
  aaa::ConstraintSet constraints;
  constraints.exclusions.emplace_back("qpsk", "qam16");
  aaa::Schedule s;
  ScheduledItem l1 = item(ItemKind::Reconfig, "load qpsk", "D1", 0, 10);
  l1.module = "qpsk";
  ScheduledItem l2 = item(ItemKind::Reconfig, "load qam16", "D2", 20, 30);
  l2.module = "qam16";
  s.push_item(l1);
  s.push_item(l2);
  s.makespan = 100;  // both stay resident to the end
  EXPECT_TRUE(check(s, {}, &constraints).has(Rule::ExclusionOverlap));
}

TEST(LintSchedule, Pdr045PrefetchIntoBusyRegion) {
  aaa::Schedule s;
  ScheduledItem run = item(ItemKind::Compute, "mod", "D1", 0, 100);
  run.variant = "qpsk";
  ScheduledItem load = item(ItemKind::Reconfig, "load qam16", "D1", 50, 150);
  load.module = "qam16";
  s.push_item(run);
  s.push_item(load);
  EXPECT_TRUE(check(s, {}).has(Rule::PrefetchIntoBusyRegion));
}

TEST(LintSchedule, Pdr046PortOverlap) {
  aaa::Schedule s;
  ScheduledItem l1 = item(ItemKind::Reconfig, "load qpsk", "D1", 0, 100);
  l1.module = "qpsk";
  ScheduledItem l2 = item(ItemKind::Reconfig, "load qam16", "D2", 50, 150);
  l2.module = "qam16";
  s.push_item(l1);
  s.push_item(l2);
  EXPECT_TRUE(check(s, {}).has(Rule::PortOverlap));
}

TEST(LintSchedule, Pdr047NegativeDuration) {
  aaa::Schedule s;
  s.push_item(item(ItemKind::Compute, "a", "CPU", 100, 50));
  EXPECT_TRUE(check(s, {}).has(Rule::NegativeDuration));
}

TEST(LintSchedule, Pdr048ScrubPeriodExceedsBudget) {
  aaa::ConstraintSet constraints;
  aaa::RegionConstraint region;
  region.name = "D1";
  region.seu_budget_ms = 10;
  constraints.regions.push_back(region);

  // Rewrites at 5 ms and 12 ms over a 30 ms makespan: the tail gap
  // (12 ms .. 30 ms) is 18 ms, past the 10 ms budget.
  aaa::Schedule s;
  ScheduledItem l1 = item(ItemKind::Reconfig, "load qpsk", "D1", 4'000'000, 5'000'000);
  l1.module = "qpsk";
  ScheduledItem l2 = item(ItemKind::Reconfig, "load qam16", "D1", 11'000'000, 12'000'000);
  l2.module = "qam16";
  s.push_item(l1);
  s.push_item(l2);
  s.makespan = 30'000'000;
  const Report r = check(s, {}, &constraints);
  EXPECT_TRUE(r.has(Rule::ScrubPeriodExceedsBudget));
  // Warning severity: the budget is advisory, not a hard hazard.
  EXPECT_EQ(r.errors(), 0u);

  // A third rewrite inside the tail brings every gap under budget.
  ScheduledItem l3 = item(ItemKind::Reconfig, "load qpsk", "D1", 20'000'000, 21'000'000);
  l3.module = "qpsk";
  s.push_item(l3);
  EXPECT_FALSE(check(s, {}, &constraints).has(Rule::ScrubPeriodExceedsBudget));

  // A budgeted region with no rewrite at all is one long exposure window.
  aaa::Schedule idle;
  idle.makespan = 30'000'000;
  EXPECT_TRUE(check(idle, {}, &constraints).has(Rule::ScrubPeriodExceedsBudget));
  // No budget declared -> never flagged.
  constraints.regions[0].seu_budget_ms = -1;
  EXPECT_FALSE(check(idle, {}, &constraints).has(Rule::ScrubPeriodExceedsBudget));
}

TEST(LintSchedule, CleanScheduleHasNoDiagnostics) {
  aaa::Schedule s;
  ScheduledItem load = item(ItemKind::Reconfig, "load qpsk", "D1", 0, 100);
  load.module = "qpsk";
  ScheduledItem run = item(ItemKind::Compute, "mod", "D1", 100, 200);
  run.variant = "qpsk";
  s.push_item(load);
  s.push_item(run);
  s.makespan = 200;
  const Report report = check(s, {});
  EXPECT_TRUE(report.empty()) << report.to_text();
}

// ------------------------------------------------------------- executive

using aaa::MacroOp;

TEST(LintExecutive, Pdr060SendWithoutRecv) {
  const aaa::Executive e =
      ExecutiveBuilder().program("CPU").instr(MacroOp::Send, "buf", "BUS", 0).build();
  EXPECT_TRUE(check_executive(e).has(Rule::SendWithoutRecv));
}

TEST(LintExecutive, Pdr061RecvWithoutSend) {
  const aaa::Executive e =
      ExecutiveBuilder().program("F1").instr(MacroOp::Recv, "buf", "BUS", 0).build();
  EXPECT_TRUE(check_executive(e).has(Rule::RecvWithoutSend));
}

TEST(LintExecutive, Pdr062OrphanMove) {
  const aaa::Executive e =
      ExecutiveBuilder().program("BUS", true).instr(MacroOp::Move, "ghost", "CPU", 0).build();
  const Report report = check_executive(e);
  EXPECT_TRUE(report.has(Rule::OrphanMove));
  EXPECT_EQ(report.errors(), 0u) << report.to_text();  // a warning, not an error
}

TEST(LintExecutive, Pdr063SyncCycle) {
  // A waits for x before sending y; B waits for y before sending x.
  const aaa::Executive e = ExecutiveBuilder()
                               .program("A")
                               .instr(MacroOp::Recv, "x", "BUS", 0)
                               .instr(MacroOp::Send, "y", "BUS", 0)
                               .program("B")
                               .instr(MacroOp::Recv, "y", "BUS", 0)
                               .instr(MacroOp::Send, "x", "BUS", 0)
                               .build();
  EXPECT_TRUE(check_executive(e).has(Rule::SyncCycle));
}

TEST(LintExecutive, Pdr064RecvBeforeSend) {
  const aaa::Executive e = ExecutiveBuilder()
                               .program("A")
                               .instr(MacroOp::Recv, "x", "BUS", 0)
                               .program("B")
                               .instr(MacroOp::Send, "x", "BUS", 10)
                               .build();
  EXPECT_TRUE(check_executive(e).has(Rule::RecvBeforeSend));
}

TEST(LintExecutive, Pdr065BufferOverwrite) {
  const aaa::Executive e = ExecutiveBuilder()
                               .program("A")
                               .instr(MacroOp::Send, "x", "BUS", 0)
                               .instr(MacroOp::Send, "x", "BUS", 5)
                               .program("B")
                               .instr(MacroOp::Recv, "x", "BUS", 10)
                               .instr(MacroOp::Recv, "x", "BUS", 20)
                               .build();
  EXPECT_TRUE(check_executive(e).has(Rule::BufferOverwrite));
}

TEST(LintExecutive, CleanHandshakeHasNoDiagnostics) {
  const aaa::Executive e = ExecutiveBuilder()
                               .program("A")
                               .instr(MacroOp::Send, "x", "BUS", 0)
                               .program("B")
                               .instr(MacroOp::Recv, "x", "BUS", 10)
                               .build();
  const Report report = check_executive(e);
  EXPECT_TRUE(report.empty()) << report.to_text();
}

}  // namespace
}  // namespace pdr::lint
