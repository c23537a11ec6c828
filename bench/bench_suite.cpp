// The canonical perf harness: one binary, four BENCH_*.json documents.
//
//   bench_suite                    full tier (1k/10k/100k/1M-op adequation,
//                                  216-point explorer sweep, fault
//                                  campaigns, cold/warm pipeline, fleet
//                                  service at 10/100/1000 devices)
//   bench_suite --smoke            CI tier: same suites, CI-sized inputs
//   bench_suite --out-dir <dir>    where BENCH_*.json land (default ".")
//   bench_suite --repeats <n>      override the per-record repeat count
//   bench_suite --suite <name>     run and write one suite only (adequation,
//                                  explore, floorplan, flow or service)
//
// Each suite writes BENCH_<suite>.json (schema in src/bench/report.hpp:
// git sha, per-record config, warm-up reported separately from the
// Welford mean/stddev/min/max of the timed repeats) and prints the human
// table. Workloads come from the seeded generators in src/bench — every
// record's input is a pure function of its printed config.
//
// The adequation suite doubles as the scheduler acceptance oracle: at
// each equivalence size the indexed ready-queue engine and the retained
// rescanning reference must produce byte-identical schedules (compared
// via Schedule::to_csv), and the binary exits non-zero when they do not.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aaa/adequation.hpp"
#include "aaa/codegen_m4.hpp"
#include "aaa/explorer.hpp"
#include "aaa/project_io.hpp"
#include "bench/generators.hpp"
#include "bench/report.hpp"
#include "bench/rescan_reference.hpp"
#include "fault/campaign.hpp"
#include "fault/fault_spec.hpp"
#include "flow/artifact_store.hpp"
#include "flow/explorer.hpp"
#include "flow/pipeline.hpp"
#include "mccdma/case_study.hpp"
#include "mccdma/flow_presets.hpp"
#include "plan/planner.hpp"
#include "svc/request_log.hpp"
#include "svc/service.hpp"
#include "util/arg_parser.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

using namespace pdr;
using namespace pdr::literals;
using bench::BenchRecord;
using bench::GeneratorConfig;
using bench::GraphShape;

namespace {

struct SuiteOptions {
  bool smoke = false;
  std::string out_dir = ".";
  int repeats = 0;    ///< 0 = default (3)
  std::string suite;  ///< "" = every suite
};

constexpr const char* kSuites[] = {"adequation", "explore", "floorplan", "flow", "service"};

// Both tiers take one warm-up and three timed repeats per record: the
// regression gate compares the smoke tier's mean, and a single cold sample
// on a loaded host is noise, not a measurement.
int default_repeats(const SuiteOptions& opts) { return opts.repeats > 0 ? opts.repeats : 3; }
constexpr int kWarmupRuns = 1;

void push_generator_config(BenchRecord& rec, const GeneratorConfig& cfg, int regions, int cpus) {
  rec.config.emplace_back("shape", bench::graph_shape_name(cfg.shape));
  rec.config.emplace_back("n_ops", std::to_string(cfg.n_ops));
  rec.config.emplace_back("width", std::to_string(cfg.width));
  rec.config.emplace_back("fanout", std::to_string(cfg.fanout));
  rec.config.emplace_back("seed", std::to_string(cfg.seed));
  rec.config.emplace_back("regions", std::to_string(regions));
  rec.config.emplace_back("cpus", std::to_string(cpus));
}

// --- suite: adequation ----------------------------------------------------

/// Workload sizes per tier. The full tier walks the roadmap ladder
/// (1k/10k/100k/1M); smoke keeps CI under a couple of seconds per record.
std::vector<GeneratorConfig> adequation_configs(bool smoke) {
  std::vector<GeneratorConfig> configs;
  const std::vector<int> layered_sizes =
      smoke ? std::vector<int>{1'000, 5'000}
            : std::vector<int>{1'000, 10'000, 100'000, 1'000'000};
  for (const int n : layered_sizes) {
    GeneratorConfig cfg;
    cfg.shape = GraphShape::Layered;
    cfg.n_ops = n;
    cfg.width = 20;
    configs.push_back(cfg);
  }
  for (const GraphShape shape : {GraphShape::Random, GraphShape::Streaming}) {
    GeneratorConfig cfg;
    cfg.shape = shape;
    cfg.n_ops = smoke ? 1'000 : 10'000;
    cfg.width = shape == GraphShape::Streaming ? 8 : 20;
    configs.push_back(cfg);
  }
  return configs;
}

std::vector<BenchRecord> run_adequation_suite(const SuiteOptions& opts, bool& identical_ok) {
  const int regions = 4;
  const int cpus = 2;
  const aaa::ArchitectureGraph arch = bench::bench_architecture(regions, cpus);
  const aaa::DurationTable durations = bench::bench_durations();
  std::vector<BenchRecord> records;

  for (const GeneratorConfig& cfg : adequation_configs(opts.smoke)) {
    std::printf("  generating %s ...\n", cfg.name().c_str());
    const aaa::AlgorithmGraph g = bench::generate_graph(cfg);
    const aaa::Adequation adequation(g, arch, durations);
    aaa::Schedule last;
    BenchRecord rec =
        bench::measure("adequation/" + cfg.name(), kWarmupRuns, default_repeats(opts),
                       [&] { last = adequation.run(); });
    push_generator_config(rec, cfg, regions, cpus);
    rec.config.emplace_back("ready_policy", "indexed_heap");
    if (const auto mean = rec.wall_ms.opt_mean(); mean && *mean > 0)
      rec.extra.emplace_back("ops_per_sec", cfg.n_ops / (*mean / 1e3));
    rec.extra.emplace_back("schedule_items", static_cast<double>(last.size()));
    rec.extra.emplace_back("makespan_ms", static_cast<double>(last.makespan) / 1e6);
    records.push_back(std::move(rec));
    std::printf("  %-34s mean %.2f ms\n", records.back().name.c_str(),
                records.back().wall_ms.mean());
  }

  // Equivalence oracle: indexed engine vs bench::schedule_rescan_reference,
  // byte for byte, at a small and a large size. The large full-tier point
  // (100k ops) is the acceptance criterion for the hot-path work.
  const std::vector<int> equiv_sizes =
      opts.smoke ? std::vector<int>{1'000, 5'000} : std::vector<int>{1'000, 100'000};
  for (const int n : equiv_sizes) {
    GeneratorConfig cfg;
    cfg.shape = GraphShape::Layered;
    cfg.n_ops = n;
    cfg.width = 20;
    std::printf("  equivalence check at %d ops ...\n", n);
    const aaa::AlgorithmGraph g = bench::generate_graph(cfg);
    const aaa::Adequation adequation(g, arch, durations);

    std::string heap_csv;
    std::string rescan_csv;
    BenchRecord heap_rec = bench::measure("adequation/equiv-heap/" + cfg.name(), 0, 1,
                                          [&] { heap_csv = adequation.run().to_csv(); });
    BenchRecord rescan_rec = bench::measure(
        "adequation/equiv-rescan/" + cfg.name(), 0, 1,
        [&] { rescan_csv = bench::schedule_rescan_reference(adequation).to_csv(); });
    const bool identical = heap_csv == rescan_csv;
    identical_ok = identical_ok && identical;

    push_generator_config(heap_rec, cfg, regions, cpus);
    heap_rec.config.emplace_back("ready_policy", "indexed_heap");
    push_generator_config(rescan_rec, cfg, regions, cpus);
    rescan_rec.config.emplace_back("ready_policy", "rescan_reference");
    const double heap_ms = heap_rec.wall_ms.mean();
    const double rescan_ms = rescan_rec.wall_ms.mean();
    heap_rec.extra.emplace_back("identical", identical ? 1.0 : 0.0);
    if (heap_ms > 0) heap_rec.extra.emplace_back("speedup_vs_rescan", rescan_ms / heap_ms);
    rescan_rec.extra.emplace_back("identical", identical ? 1.0 : 0.0);
    records.push_back(std::move(heap_rec));
    records.push_back(std::move(rescan_rec));
    std::printf("  equiv %-28s heap %.2f ms  rescan %.2f ms  %s\n", cfg.name().c_str(), heap_ms,
                rescan_ms, identical ? "identical" : "DIFFERENT");
  }
  return records;
}

// --- suite: explore -------------------------------------------------------

std::vector<BenchRecord> run_explore_suite(const SuiteOptions& opts) {
  const int regions = 2;
  const int cpus = 2;
  // The smoke point (100 ops, one strategy, D1 preloads) and, in the full
  // tier, 200 ops over all strategies and both regions' preloads. The full
  // tier repeats the smoke point, so the regression gate has a shared
  // record to compare.
  std::vector<bool> ladder = {false};
  if (!opts.smoke) ladder.push_back(true);

  std::vector<BenchRecord> records;
  for (const bool full : ladder) {
    GeneratorConfig cfg;
    cfg.shape = GraphShape::Layered;
    cfg.n_ops = full ? 200 : 100;
    cfg.width = 10;

    aaa::Project project;
    project.name = "bench-explore";
    project.algorithm = bench::generate_graph(cfg);
    project.architecture = bench::bench_architecture(regions, cpus);
    project.durations = bench::bench_durations();

    // First conditioned vertices of the generated graph, in id order — the
    // selection axis. (ExplorationSpace::from_project would put EVERY
    // conditioned vertex on the axis and the cross product explodes; the
    // bench pins the axis width so the point count is a config constant.)
    std::vector<std::string> conditioned;
    for (const graph::NodeId n : project.algorithm.digraph().node_ids()) {
      if (project.algorithm.op(n).conditioned())
        conditioned.push_back(project.algorithm.op(n).name);
      if (conditioned.size() == 2) break;
    }
    PDR_CHECK(conditioned.size() == 2, "bench_suite", "generated graph lacks conditioned vertices");

    aaa::ExplorationSpace space;
    space.strategies = full ? std::vector<aaa::MappingStrategy>{aaa::MappingStrategy::SynDExList,
                                                                aaa::MappingStrategy::RoundRobin,
                                                                aaa::MappingStrategy::FirstFeasible}
                            : std::vector<aaa::MappingStrategy>{aaa::MappingStrategy::SynDExList};
    space.prefetch = {true, false};
    space.preloads = {{"D1", {"", "filt_a", "filt_b"}}};
    if (full) space.preloads.push_back({"D2", {"", "filt_a", "filt_b"}});
    space.selections = {{conditioned[0], {"filt_a", "filt_b"}},
                        {conditioned[1], {"filt_a", "filt_b"}}};
    const std::size_t points = space.point_count();

    flow::ExplorerOptions explorer_opts;
    explorer_opts.jobs = 1;  // serial: points/sec per core is the tracked figure
    const flow::DesignSpaceExplorer explorer(project, space, explorer_opts);

    std::size_t pareto = 0;
    std::size_t failed = 0;
    BenchRecord rec = bench::measure(
        strprintf("explore/%s/points%zu", cfg.name().c_str(), points), kWarmupRuns,
        default_repeats(opts), [&] {
          const flow::ExplorationReport report = explorer.run();
          pareto = report.pareto.size();
          failed = report.failed_points();
        });
    push_generator_config(rec, cfg, regions, cpus);
    rec.config.emplace_back("points", std::to_string(points));
    rec.config.emplace_back("jobs", "1");
    if (const auto mean = rec.wall_ms.opt_mean(); mean && *mean > 0)
      rec.extra.emplace_back("points_per_sec", static_cast<double>(points) / (*mean / 1e3));
    rec.extra.emplace_back("pareto_points", static_cast<double>(pareto));
    rec.extra.emplace_back("failed_points", static_cast<double>(failed));
    std::printf("  %-34s mean %.2f ms (%zu points)\n", rec.name.c_str(), rec.wall_ms.mean(),
                points);
    records.push_back(std::move(rec));
  }
  return records;
}

// --- suite: floorplan -----------------------------------------------------

// The automatic floorplanner on a generated project: the tracked figure
// is candidates-evaluated-per-second of the co-optimization loop. Each
// evaluation prices a candidate; `schedules_run` counts the adequation
// runs behind them, one per distinct pricing table plus the certifying
// run (see docs/floorplan.md).
std::vector<BenchRecord> run_floorplan_suite(const SuiteOptions& opts) {
  const int regions = 2;
  const int cpus = 2;
  // (ops, planner rounds) per record. The full tier repeats the smoke
  // point, so the regression gate has a shared record to compare.
  std::vector<std::pair<int, int>> ladder = {{100, 8}};
  if (!opts.smoke) ladder.emplace_back(200, 64);

  std::vector<BenchRecord> records;
  for (const auto& [ops, rounds] : ladder) {
    GeneratorConfig cfg;
    cfg.shape = GraphShape::Layered;
    cfg.n_ops = ops;
    cfg.width = 10;

    aaa::Project project;
    project.name = "bench-floorplan";
    project.algorithm = bench::generate_graph(cfg);
    project.architecture = bench::bench_architecture(regions, cpus);
    project.durations = bench::bench_durations();

    plan::PlanOptions plan_opts;
    plan_opts.max_rounds = rounds;

    plan::PlanResult last;
    BenchRecord rec = bench::measure(
        strprintf("floorplan/%s/regions%d", cfg.name().c_str(), regions), kWarmupRuns,
        default_repeats(opts), [&] { last = plan::plan_floorplan(project, plan_opts); });
    push_generator_config(rec, cfg, regions, cpus);
    rec.config.emplace_back("max_rounds", std::to_string(plan_opts.max_rounds));
    rec.extra.emplace_back("schedules_evaluated", static_cast<double>(last.evaluated));
    rec.extra.emplace_back("schedules_run", static_cast<double>(last.scheduled));
    if (const auto mean = rec.wall_ms.opt_mean(); mean && *mean > 0)
      rec.extra.emplace_back("evals_per_sec",
                             static_cast<double>(last.evaluated) / (*mean / 1e3));
    rec.extra.emplace_back("makespan_ms", static_cast<double>(last.makespan) / 1e6);
    rec.extra.emplace_back("lint_errors", static_cast<double>(last.lint.errors()));
    rec.extra.emplace_back("certified", last.certified ? 1.0 : 0.0);
    std::printf("  %-34s mean %.2f ms (%d evals, %d schedules run)\n", rec.name.c_str(),
                rec.wall_ms.mean(), last.evaluated, last.scheduled);
    records.push_back(std::move(rec));
  }
  return records;
}

// --- suite: flow (pipeline + fault campaigns) -----------------------------

std::vector<BenchRecord> run_flow_suite(const SuiteOptions& opts) {
  std::vector<BenchRecord> records;
  const flow::PipelineOptions pipeline_opts = mccdma::case_study_pipeline().options();
  const auto drive = [](flow::Pipeline& p) {
    p.bundle();
    p.adequation();
    p.codegen();
  };

  // Cold: every repeat starts from an empty artifact store, so each run
  // pays constraints parse + Modular Design flow + adequation + codegen.
  {
    BenchRecord rec =
        bench::measure("flow/pipeline-cold", 0, default_repeats(opts), [&] {
          auto store = std::make_shared<flow::ArtifactStore>();
          flow::Pipeline pipeline(pipeline_opts, store);
          drive(pipeline);
        });
    rec.config.emplace_back("pipeline", "case_study");
    rec.config.emplace_back("store", "cold");
    std::printf("  %-34s mean %.2f ms\n", rec.name.c_str(), rec.wall_ms.mean());
    records.push_back(std::move(rec));
  }

  // Warm: one shared store; the single warm-up run populates it and the
  // timed repeats measure pure cache service.
  {
    auto store = std::make_shared<flow::ArtifactStore>();
    BenchRecord rec = bench::measure("flow/pipeline-warm", 1, default_repeats(opts), [&] {
      flow::Pipeline pipeline(pipeline_opts, store);
      drive(pipeline);
    });
    rec.config.emplace_back("pipeline", "case_study");
    rec.config.emplace_back("store", "warm");
    std::printf("  %-34s mean %.2f ms\n", rec.name.c_str(), rec.wall_ms.mean());
    records.push_back(std::move(rec));
  }

  // Codegen: the executive, one m4 file per program and the CSV export
  // of a layered schedule, as the back half of `pdrflow build` emits
  // them. The schedule is built once, outside the timed region.
  {
    std::vector<int> sizes = {10'000};
    if (!opts.smoke) sizes.push_back(120'000);
    const int regions = 4;
    const int cpus = 2;
    const aaa::ArchitectureGraph arch = bench::bench_architecture(regions, cpus);
    for (const int n : sizes) {
      GeneratorConfig cfg;
      cfg.shape = GraphShape::Layered;
      cfg.n_ops = n;
      cfg.width = 20;
      const aaa::AlgorithmGraph g = bench::generate_graph(cfg);
      const aaa::Schedule schedule =
          aaa::Adequation(g, arch, bench::bench_durations()).run();
      std::size_t bytes = 0;
      BenchRecord rec = bench::measure(
          strprintf("flow/codegen/layered/%d", n), kWarmupRuns, default_repeats(opts), [&] {
            const aaa::Executive exec = aaa::generate_executive(schedule, g, arch);
            bytes = 0;
            for (const auto& program : exec.programs)
              bytes += aaa::generate_m4_macrocode(program, arch).size();
            bytes += schedule.to_csv().size();
          });
      push_generator_config(rec, cfg, regions, cpus);
      if (const auto mean = rec.wall_ms.opt_mean(); mean && *mean > 0)
        rec.extra.emplace_back("ops_per_sec", n / (*mean / 1e3));
      rec.extra.emplace_back("schedule_items", static_cast<double>(schedule.size()));
      rec.extra.emplace_back("bytes_written", static_cast<double>(bytes));
      std::printf("  %-34s mean %.2f ms\n", rec.name.c_str(), rec.wall_ms.mean());
      records.push_back(std::move(rec));
    }
  }

  // Fault campaigns: seeded end-to-end runs on the case-study bundle, as
  // (horizon ms, campaigns per repeat). The full tier repeats the smoke
  // point, so the regression gate has a shared record to compare.
  std::vector<std::pair<int, int>> campaign_ladder = {{20, 2}};
  if (!opts.smoke) campaign_ladder.emplace_back(100, 4);
  for (const auto& point : campaign_ladder) {
    const int horizon_ms = point.first;
    const int campaigns_per_repeat = point.second;
    const std::string spec_text = strprintf(
        "seed 7\n"
        "horizon_ms %d\n"
        "seu D1 rate 200\n"
        "port abort_prob 0.05\n"
        "fetch corrupt qam16 prob 0.2\n",
        horizon_ms);
    const fault::FaultSpec spec = fault::parse_fault_spec(spec_text);
    const synth::DesignBundle& bundle = mccdma::shared_case_study().bundle;
    BenchRecord rec = bench::measure(
        strprintf("flow/fault-campaigns/h%dms", horizon_ms), kWarmupRuns,
        default_repeats(opts), [&] {
          for (int s = 0; s < campaigns_per_repeat; ++s) {
            rtr::BitstreamStore store = mccdma::make_case_study_store();
            fault::CampaignConfig config;
            config.seed = static_cast<std::uint64_t>(s + 1);
            (void)fault::run_campaign(bundle, store, spec, config);
          }
        });
    rec.config.emplace_back("horizon_ms", std::to_string(horizon_ms));
    rec.config.emplace_back("campaigns_per_repeat", std::to_string(campaigns_per_repeat));
    rec.config.emplace_back("recovery", "on");
    if (const auto mean = rec.wall_ms.opt_mean(); mean && *mean > 0)
      rec.extra.emplace_back("campaigns_per_sec", campaigns_per_repeat / (*mean / 1e3));
    std::printf("  %-34s mean %.2f ms\n", rec.name.c_str(), rec.wall_ms.mean());
    records.push_back(std::move(rec));
  }
  return records;
}

// --- suite: service (fleet reconfiguration service) -----------------------

std::vector<BenchRecord> run_service_suite(const SuiteOptions& opts) {
  std::vector<BenchRecord> records;
  const synth::DesignBundle& bundle = mccdma::shared_case_study().bundle;
  std::vector<std::pair<std::string, std::vector<std::string>>> catalog;
  for (const auto& [region, variants] : bundle.dynamic_variants)
    catalog.emplace_back(region, bundle.variant_names(region));

  // Fleet sizes ride the roadmap ladder; the tracked figure is request
  // throughput (virtual requests drained per wall-clock second).
  const std::vector<int> fleet_sizes =
      opts.smoke ? std::vector<int>{10, 100} : std::vector<int>{10, 100, 1000};
  for (const int devices : fleet_sizes) {
    svc::TrafficOptions traffic;
    traffic.devices = devices;
    traffic.requests = devices * (opts.smoke ? 5 : 10);
    traffic.seed = 21;
    traffic.horizon = 200_ms;
    traffic.deadline = 50_ms;
    const svc::RequestLog log = svc::generate_request_log(traffic, catalog);

    svc::ServiceReport last;
    BenchRecord rec = bench::measure(
        strprintf("service/fleet%d/req%d", devices, traffic.requests), kWarmupRuns,
        default_repeats(opts), [&] {
          svc::ServiceConfig config;
          config.jobs = 4;
          svc::FleetService service(bundle, config);
          last = service.run(log);
        });
    rec.config.emplace_back("devices", std::to_string(devices));
    rec.config.emplace_back("requests", std::to_string(traffic.requests));
    rec.config.emplace_back("seed", std::to_string(traffic.seed));
    rec.config.emplace_back("jobs", "4");
    if (const auto mean = rec.wall_ms.opt_mean(); mean && *mean > 0)
      rec.extra.emplace_back("requests_per_sec",
                             static_cast<double>(traffic.requests) / (*mean / 1e3));
    rec.extra.emplace_back("completed", static_cast<double>(last.completed));
    rec.extra.emplace_back("rejected_queue_full", static_cast<double>(last.rejected_queue_full));
    rec.extra.emplace_back("cache_fetches", static_cast<double>(last.cache.fetches));
    std::printf("  %-34s mean %.2f ms\n", rec.name.c_str(), rec.wall_ms.mean());
    records.push_back(std::move(rec));
  }
  return records;
}

void write_suite(const SuiteOptions& opts, const std::string& suite,
                 const std::vector<BenchRecord>& records) {
  std::printf("\n%s\n", bench::bench_table(records).c_str());
  bench::write_bench_json(opts.out_dir + "/BENCH_" + suite + ".json", suite, opts.smoke, records);
}

}  // namespace

int main(int argc, char** argv) {
  // Line-buffered even when redirected, so CI logs show per-record
  // progress while the full tier's multi-minute records run.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  try {
    const util::ArgParser args(
        "bench_suite", argc - 1, argv + 1,
        {{"--smoke", false}, {"--out-dir", true}, {"--repeats", true}, {"--suite", true}}, 0);
    SuiteOptions opts;
    opts.smoke = args.has("--smoke");
    opts.out_dir = args.string_or("--out-dir", ".");
    opts.repeats = static_cast<int>(args.uint_or("--repeats", 0));
    opts.suite = args.string_or("--suite", "");
    if (!opts.suite.empty() &&
        std::find(std::begin(kSuites), std::end(kSuites), opts.suite) == std::end(kSuites))
      throw Error("unknown --suite '" + opts.suite +
                  "' (expected adequation, explore, floorplan, flow or service)");

    std::printf("=== bench_suite (%s tier, %d repeats, git %s) ===\n",
                opts.smoke ? "smoke" : "full", default_repeats(opts), bench::git_sha().c_str());

    const auto selected = [&](const char* suite) {
      if (!opts.suite.empty() && opts.suite != suite) return false;
      std::printf("\n--- %s ---\n", suite);
      return true;
    };
    bool identical_ok = true;
    const bool checked_engines = selected("adequation");
    if (checked_engines) write_suite(opts, "adequation", run_adequation_suite(opts, identical_ok));
    if (selected("explore")) write_suite(opts, "explore", run_explore_suite(opts));
    if (selected("floorplan")) write_suite(opts, "floorplan", run_floorplan_suite(opts));
    if (selected("flow")) write_suite(opts, "flow", run_flow_suite(opts));
    if (selected("service")) write_suite(opts, "service", run_service_suite(opts));

    if (!identical_ok) {
      std::fputs("\nFAIL: indexed and rescanning engines disagree on a schedule\n", stderr);
      return 1;
    }
    if (checked_engines) std::puts("\nall schedules byte-identical across engines");
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "bench_suite: %s\n", e.what());
    return 1;
  }
}
