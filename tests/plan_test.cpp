// pdr::plan coverage: the automatic slice-column floorplanner against the
// shipped demo_tx project — feasibility (PDR020–025-clean, certified),
// the co-optimization objective (never worse than a hand-written fixed
// plan), determinism, and the explorer axis it feeds.
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "aaa/project_io.hpp"
#include "bench/generators.hpp"
#include "fabric/device.hpp"
#include "fabric/floorplan.hpp"
#include "lint/lint.hpp"
#include "plan/planner.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdr::plan {
namespace {

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

aaa::Project demo_project() {
  return aaa::parse_project(
      read_file(std::filesystem::path(PDR_EXAMPLES_DIR) / "demo_tx.project"));
}

TEST(Planner, DemoProjectPlanIsCleanAndCertified) {
  const PlanResult result = plan_floorplan(demo_project());
  EXPECT_EQ(result.lint.errors(), 0u) << result.lint.to_text();
  EXPECT_TRUE(result.certified) << result.certificate_error;
  ASSERT_EQ(result.regions.size(), 1u);
  EXPECT_EQ(result.regions[0].name, "D1");
  EXPECT_GT(result.makespan, 0);
  EXPECT_GT(result.evaluated, 0);
}

TEST(Planner, PlannedRegionsMeetTheSliceColumnFloor) {
  const PlanResult result = plan_floorplan(demo_project());
  for (const auto& region : result.regions) {
    EXPECT_GE(fabric::to_slice_cols(region.width).value, fabric::kMinReconfigSliceCols)
        << region.name;
    EXPECT_GE(region.width.value, region.worst_variant_cols) << region.name;
    EXPECT_GE(region.col_lo, 0);
    EXPECT_LT(region.col_hi, result.device.clb_cols);
    EXPECT_GT(region.payload_bytes, 0u) << region.name;
    EXPECT_GT(region.load_ns, 0) << region.name;
  }
}

TEST(Planner, PlannedBusMacrosNeverSitOnTheDeviceEdge) {
  // The S2 boundary bugfix as a planner property: every emitted macro
  // has a real static column on its far side.
  const PlanResult result = plan_floorplan(demo_project());
  ASSERT_FALSE(result.fabric_regions.empty());
  for (const auto& region : result.fabric_regions) {
    EXPECT_FALSE(region.bus_macros.empty()) << region.name;
    for (const auto& bm : region.bus_macros) {
      EXPECT_GE(bm.boundary_col, 1) << region.name;
      EXPECT_LE(bm.boundary_col, result.device.clb_cols - 1) << region.name;
    }
  }
}

TEST(Planner, CoOptimizedPlanBeatsOrTiesHandWrittenBaseline) {
  // The acceptance bar: the planner's makespan is never worse than the
  // hand-written 5-column D1 the demo project shipped with.
  const aaa::Project project = demo_project();
  const PlanResult planned = plan_floorplan(project);
  const PlanResult baseline = plan_fixed(project, {{"D1", 5}});
  EXPECT_EQ(baseline.lint.errors(), 0u) << baseline.lint.to_text();
  EXPECT_LE(planned.makespan, baseline.makespan);
}

TEST(Planner, SearchIsDeterministic) {
  // Same seed, same plan — to_string() carries every column, byte count
  // and nanosecond, so equality here is the whole-result contract.
  const aaa::Project project = demo_project();
  const std::string a = plan_floorplan(project).to_string();
  const std::string b = plan_floorplan(project).to_string();
  EXPECT_EQ(a, b);

  PlanOptions other;
  other.seed = 12345;
  const PlanResult reseeded = plan_floorplan(project, other);
  // A different seed may find a different span, but never a worse class
  // of result: still clean and certified.
  EXPECT_EQ(reseeded.lint.errors(), 0u);
  EXPECT_TRUE(reseeded.certified);
}

TEST(Planner, ConstraintsFragmentIsLintCleanAndRoundTrips) {
  const PlanResult result = plan_floorplan(demo_project());
  const std::string fragment = result.constraints_fragment();
  EXPECT_NE(fragment.find("region D1"), std::string::npos) << fragment;
  EXPECT_NE(fragment.find("width"), std::string::npos) << fragment;
}

TEST(Planner, FloorplanAxisYieldsDistinctPricedChoices) {
  const auto choices = floorplan_axis(demo_project(), {}, 3);
  ASSERT_FALSE(choices.empty());
  EXPECT_LE(choices.size(), 3u);
  std::set<std::string> names;
  for (const auto& choice : choices) {
    EXPECT_FALSE(choice.name.empty());
    names.insert(choice.name);
    ASSERT_TRUE(choice.region_load_ns.count("D1")) << choice.name;
    EXPECT_GT(choice.region_load_ns.at("D1"), 0) << choice.name;
  }
  EXPECT_EQ(names.size(), choices.size());
  // Wider plans carry more frames: load times must strictly grow along
  // the widening ladder.
  for (std::size_t i = 1; i < choices.size(); ++i)
    EXPECT_GT(choices[i].region_load_ns.at("D1"), choices[i - 1].region_load_ns.at("D1"));
}

TEST(Planner, FixedPlanRejectsMissingAndOversizedWidths) {
  const aaa::Project project = demo_project();
  EXPECT_THROW((void)plan_fixed(project, {}), pdr::Error);
  EXPECT_THROW((void)plan_fixed(project, {{"D1", 1000}}), pdr::Error);
}

TEST(Planner, ProjectWithoutDynamicRegionsIsRejected) {
  aaa::Project project = demo_project();
  project.architecture = aaa::ArchitectureGraph();
  project.architecture.add_operator(
      aaa::OperatorNode{"CPU", aaa::OperatorKind::Processor, 1.0, "", ""});
  EXPECT_THROW((void)plan_floorplan(project), pdr::Error);
}

TEST(Planner, ResultReportNamesEveryRegionAndTheVerdict) {
  const PlanResult result = plan_floorplan(demo_project());
  const std::string text = result.to_string();
  EXPECT_NE(text.find("D1"), std::string::npos) << text;
  EXPECT_NE(text.find("makespan"), std::string::npos) << text;
  EXPECT_NE(text.find("certified"), std::string::npos) << text;
  const auto loads = result.region_load_ns();
  ASSERT_TRUE(loads.count("D1"));
  ASSERT_EQ(result.regions.size(), 1u);
  EXPECT_EQ(loads.at("D1"), result.regions[0].load_ns);
}

// --- planner golden ---------------------------------------------------------
//
// Pins the whole observable result of plan_floorplan, plan_fixed and
// floorplan_axis (report text, priced loads, evaluation and round counts,
// certification, error text) over seeded generated projects, the 2k-op
// co-design project among them, and one set of schedule options under
// which every adequation throws. On a mismatch the computed text is
// written to plan_golden.actual.txt in the test's build directory. The
// golden may change only with a CHANGES.md line saying why.

struct GoldenCase {
  std::string name;
  aaa::Project project;
  PlanOptions options;
};

aaa::Project generated_project(int n_ops, int width, std::uint64_t seed, int regions, int cpus) {
  bench::GeneratorConfig cfg;
  cfg.shape = bench::GraphShape::Layered;
  cfg.n_ops = n_ops;
  cfg.width = width;
  cfg.seed = seed;
  aaa::Project project;
  project.name = cfg.name();
  project.algorithm = bench::generate_graph(cfg);
  project.architecture = bench::bench_architecture(regions, cpus);
  project.durations = bench::bench_durations();
  return project;
}

/// The co-design benchmark's project: 2k ops, two regions, two CPUs.
aaa::Project codesign_project(std::uint64_t seed) { return generated_project(2'000, 10, seed, 2, 2); }

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  cases.push_back({"codesign2k/seed1", codesign_project(1), {}});
  cases.push_back({"codesign2k/seed1234", codesign_project(1234), {}});
  cases.push_back({"layered300/r1c3/seed7", generated_project(300, 10, 7, 1, 3), {}});
  {
    GoldenCase c{"layered500/r1c2/seed42/no-prefetch", generated_project(500, 20, 42, 1, 2), {}};
    c.options.schedule_options.prefetch = false;
    c.options.seed = 99;
    c.options.margin_cols = 2;
    cases.push_back(std::move(c));
  }
  // Three right-packed regions start infeasible and the climb cannot
  // reach a feasible plan from there.
  cases.push_back({"layered500/r3c2/seed42", generated_project(500, 20, 42, 3, 2), {}});
  {
    GoldenCase c{"layered400/r2c1/seed5/margin1", generated_project(400, 8, 5, 2, 1), {}};
    c.options.margin_cols = 1;
    c.options.store_bandwidth_bytes_per_s = 4e6;
    cases.push_back(std::move(c));
  }
  cases.push_back({"demo_tx", demo_project(), {}});
  {
    // Every schedule throws: the selection names no alternative.
    GoldenCase c{"layered300/r2c2/seed3/bad-selection", generated_project(300, 10, 3, 2, 2), {}};
    for (const graph::NodeId n : c.project.algorithm.digraph().node_ids())
      if (c.project.algorithm.op(n).conditioned()) {
        c.options.schedule_options.selection[c.project.algorithm.op(n).name] = "no_such_alt";
        break;
      }
    cases.push_back(std::move(c));
  }
  return cases;
}

std::string loads_line(const std::map<std::string, TimeNs>& loads) {
  std::string out = "  loads:";
  for (const auto& [region, ns] : loads)
    out += strprintf(" %s=%lld", region.c_str(), static_cast<long long>(ns));
  return out + "\n";
}

std::string result_lines(const PlanResult& r) {
  return r.to_string() + loads_line(r.region_load_ns()) +
         strprintf("  evaluated %d, rounds %d, certified %d\n", r.evaluated, r.rounds,
                   r.certified ? 1 : 0);
}

template <typename Fn>
std::string guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const Error& e) {
    return std::string("  error: ") + e.what() + "\n";
  }
}

std::string golden_text(const GoldenCase& c) {
  std::string out = "== " + c.name + "\n";
  std::map<std::string, int> widths;
  out += "plan_floorplan:\n" + guarded([&] {
    const PlanResult r = plan_floorplan(c.project, c.options);
    for (const auto& region : r.regions) widths[region.name] = region.width.value;
    return result_lines(r);
  });
  if (!widths.empty()) {
    out += "plan_fixed (planned widths):\n" +
           guarded([&] { return result_lines(plan_fixed(c.project, widths, c.options)); });
    std::map<std::string, int> narrower = widths;
    for (auto& [region, w] : narrower) w = std::max(w - 1, 1);
    out += "plan_fixed (planned widths - 1):\n" +
           guarded([&] { return result_lines(plan_fixed(c.project, narrower, c.options)); });
  }
  out += "floorplan_axis:\n" + guarded([&] {
    std::string text;
    for (const auto& choice : floorplan_axis(c.project, c.options, 3))
      text += "  " + choice.name + "\n" + loads_line(choice.region_load_ns);
    return text;
  });
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(PlannerGolden, MatchGolden) {
  std::string computed;
  for (const GoldenCase& c : golden_cases()) computed += golden_text(c);

  std::ifstream in(PDR_PLAN_GOLDEN);
  std::stringstream golden;
  golden << in.rdbuf();
  if (computed == golden.str()) return;

  const std::string actual = std::string(PDR_PLAN_OUT_DIR) + "/plan_golden.actual.txt";
  std::ofstream(actual) << computed;
  const std::vector<std::string> want = split_lines(golden.str());
  const std::vector<std::string> got = split_lines(computed);
  std::string diff;
  for (std::size_t i = 0, shown = 0; i < std::max(want.size(), got.size()) && shown < 20; ++i) {
    const std::string w = i < want.size() ? want[i] : "<eof>";
    const std::string g = i < got.size() ? got[i] : "<eof>";
    if (w == g) continue;
    diff += strprintf("line %zu:\n- %s\n+ %s\n", i + 1, w.c_str(), g.c_str());
    ++shown;
  }
  ADD_FAILURE() << "planner results differ from " << PDR_PLAN_GOLDEN << "; wrote " << actual
                << "\n"
                << diff;
}

TEST(PlannerGolden, CodesignRunsFewerSchedulesThanItEvaluates) {
  // The co-design project's candidates mostly differ by a shift, which
  // leaves every region's price alone: those evaluations share one run.
  const PlanResult result = plan_floorplan(codesign_project(1));
  EXPECT_EQ(result.evaluated, 34);
  EXPECT_GT(result.scheduled, 0);
  EXPECT_LT(result.scheduled, result.evaluated);
}

}  // namespace
}  // namespace pdr::plan
