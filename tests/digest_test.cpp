// Behaviour digests: the four benchmark workloads (design, codesign,
// fleet, campaigns) at test size, driven through the public API for seeds
// 1 and 1234. Each case hashes its simulated output with FNV-1a and
// compares the hash with tests/fixtures/digest/<workload>_seed<n>.txt.
//
// A refactoring or a speed-up must leave every digest unchanged. A golden
// may change only together with a CHANGES.md line saying why; a failing
// case prints the digest it computed.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "aaa/adequation.hpp"
#include "aaa/codegen_m4.hpp"
#include "aaa/explorer.hpp"
#include "aaa/macrocode.hpp"
#include "bench/generators.hpp"
#include "fault/campaign.hpp"
#include "fault/fault_spec.hpp"
#include "flow/explorer.hpp"
#include "mccdma/case_study.hpp"
#include "plan/planner.hpp"
#include "svc/request_log.hpp"
#include "svc/service.hpp"
#include "util/strings.hpp"

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

/// Adequation, executive and m4 codegen of a 2k-op layered graph.
std::uint64_t design_digest(std::uint64_t seed) {
  bench::GeneratorConfig cfg;
  cfg.shape = bench::GraphShape::Layered;
  cfg.n_ops = 2'000;
  cfg.width = 20;
  cfg.seed = seed;
  const aaa::AlgorithmGraph graph = bench::generate_graph(cfg);
  const aaa::ArchitectureGraph arch = bench::bench_architecture(4, 2);
  const aaa::DurationTable durations = bench::bench_durations();
  const aaa::Schedule schedule = aaa::Adequation(graph, arch, durations).run();
  std::uint64_t h = fnv1a(schedule.to_csv());
  for (const auto& program : aaa::generate_executive(schedule, graph, arch).programs)
    h = fnv1a(aaa::generate_m4_macrocode(program, arch), h);
  return h;
}

/// Floorplanner plus a 72-point explorer run on a 300-op, 2-region project.
std::uint64_t codesign_digest(std::uint64_t seed) {
  bench::GeneratorConfig cfg;
  cfg.shape = bench::GraphShape::Layered;
  cfg.n_ops = 300;
  cfg.width = 10;
  cfg.seed = seed;
  aaa::Project project;
  project.name = "codesign";
  project.algorithm = bench::generate_graph(cfg);
  project.architecture = bench::bench_architecture(2, 2);
  project.durations = bench::bench_durations();
  std::vector<std::string> selected;
  for (const graph::NodeId n : project.algorithm.digraph().node_ids()) {
    if (project.algorithm.op(n).conditioned()) selected.push_back(project.algorithm.op(n).name);
    if (selected.size() == 2) break;
  }
  EXPECT_EQ(selected.size(), 2u);
  if (selected.size() != 2) return 0;

  const plan::PlanOptions options;
  const plan::PlanResult plan = plan::plan_floorplan(project, options);
  aaa::ExplorationSpace space;
  space.strategies = {aaa::MappingStrategy::SynDExList, aaa::MappingStrategy::RoundRobin,
                      aaa::MappingStrategy::FirstFeasible};
  space.prefetch = {true, false};
  space.preloads = {{"D1", {"", "filt_a", "filt_b"}}};
  space.selections = {{selected[0], {"filt_a", "filt_b"}}, {selected[1], {"filt_a", "filt_b"}}};
  space.floorplans = plan::floorplan_axis(project, options);
  flow::ExplorerOptions explorer_options;
  explorer_options.jobs = 1;
  const flow::ExplorationReport report =
      flow::DesignSpaceExplorer(project, space, explorer_options).run();
  return fnv1a(report.to_string(), fnv1a(plan.to_string()));
}

/// The fleet service on 30 devices and 1,000 requests over the case-study
/// bundle, with a qam16 store outage and port aborts armed.
std::uint64_t fleet_digest(std::uint64_t seed) {
  const synth::DesignBundle& bundle = mccdma::shared_case_study().bundle;
  std::vector<std::pair<std::string, std::vector<std::string>>> catalog;
  Bytes largest = 0;
  for (const auto& [region, variants] : bundle.dynamic_variants) {
    catalog.emplace_back(region, bundle.variant_names(region));
    for (const auto& v : variants) largest = std::max<Bytes>(largest, v.bitstream.size());
  }
  svc::TrafficOptions traffic;
  traffic.devices = 30;
  traffic.requests = 1'000;
  traffic.seed = seed;
  traffic.horizon = 200_ms;
  traffic.maintenance_frac = 0.25;
  traffic.deadline = 20_ms;
  const svc::RequestLog log = svc::generate_request_log(traffic, catalog);

  svc::ServiceConfig config;
  config.jobs = 2;
  config.queue_capacity = 4;
  config.fleet_cache_capacity = largest;
  config.manager = rtr::sundance_manager_config();
  config.manager.recovery.enabled = true;
  config.store_bandwidth_bytes_per_s = mccdma::kCaseStudyStoreBandwidth;
  config.store_latency = mccdma::kCaseStudyStoreLatency;
  svc::FleetService service(bundle, config);
  service.arm_faults(fault::parse_fault_spec(strprintf(
      "seed %llu\nhorizon_ms 200\nport abort_prob 0.01\n"
      "store damage qam16 at_ms 60\nstore repair qam16 at_ms 100\n",
      static_cast<unsigned long long>(seed))));
  return fnv1a(service.run(log).to_string());
}

/// Eight seeded fault campaigns (SEUs, fetch corruption, port aborts),
/// alternating blind and readback-triggered scrubbing.
std::uint64_t campaigns_digest(std::uint64_t seed) {
  const synth::DesignBundle& bundle = mccdma::shared_case_study().bundle;
  const fault::FaultSpec spec = fault::parse_fault_spec(
      "horizon_ms 100\n"
      "seu D1 rate 200\n"
      "port abort_prob 0.05\n"
      "fetch corrupt qam16 prob 0.2\n");
  std::uint64_t h = fnv1a("");
  for (int k = 0; k < 8; ++k) {
    fault::CampaignConfig config;
    config.seed = seed * 1000 + static_cast<std::uint64_t>(k) + 1;
    config.scrub_mode = k % 2 == 0 ? fault::ScrubScheduler::Mode::Blind
                                   : fault::ScrubScheduler::Mode::ReadbackTriggered;
    rtr::BitstreamStore store = mccdma::make_case_study_store();
    h = fnv1a(fault::run_campaign(bundle, store, spec, config).to_string(), h);
  }
  return h;
}

struct DigestCase {
  const char* workload;
  std::uint64_t seed;
};

void PrintTo(const DigestCase& c, std::ostream* os) {
  *os << c.workload << "_seed" << c.seed;
}

class Digest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(Digest, MatchesGolden) {
  const DigestCase& c = GetParam();
  const std::string workload = c.workload;
  std::uint64_t digest = 0;
  if (workload == "design") digest = design_digest(c.seed);
  if (workload == "codesign") digest = codesign_digest(c.seed);
  if (workload == "fleet") digest = fleet_digest(c.seed);
  if (workload == "campaigns") digest = campaigns_digest(c.seed);
  const std::string computed = strprintf("%016llx", static_cast<unsigned long long>(digest));

  const std::string path =
      strprintf("%s/%s_seed%llu.txt", PDR_DIGEST_DIR, c.workload,
                static_cast<unsigned long long>(c.seed));
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path << " (computed " << computed << ")";
  std::string golden;
  in >> golden;
  EXPECT_EQ(computed, golden) << "behaviour digest of " << workload << " seed " << c.seed
                              << " changed; " << path;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, Digest,
    ::testing::Values(DigestCase{"design", 1}, DigestCase{"design", 1234},
                      DigestCase{"codesign", 1}, DigestCase{"codesign", 1234},
                      DigestCase{"fleet", 1}, DigestCase{"fleet", 1234},
                      DigestCase{"campaigns", 1}, DigestCase{"campaigns", 1234}),
    [](const ::testing::TestParamInfo<DigestCase>& info) {
      return std::string(info.param.workload) + "_seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace pdr
