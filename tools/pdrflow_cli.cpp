// pdrflow — command-line front end to the design flow.
//
// Usage:
//   pdrflow build <constraints-file> [--out DIR]
//       Parse a constraints file, run the Modular Design flow and write
//       floorplan report + partial bitstreams (+ blank bitstreams).
//   pdrflow check <constraints-or-project-file> [--json] [--werror] [--deep]
//       Run the static design-rule checker (pdr::lint) and print the
//       diagnostics; exits 1 if any error (or, with --werror, warning).
//       --deep adds pdr::verify's interval-based hazard certification
//       (the PDR1xx family) over the default schedule. A file whose
//       first directive is `fleet` is checked as a service request log
//       (the PDR12x family) against the case-study design.
//   pdrflow inspect <bitstream.bit> --device NAME
//       Validate a bitstream and print its packet structure.
//   pdrflow devices
//       List the supported device models.
//   pdrflow latency <constraints-file> [--bandwidth B/s]
//       Print per-module cold/staged reconfiguration latencies.
//   pdrflow simulate [--symbols N] [--prefetch none|schedule|history] ...
//       Run the MC-CDMA transmitter case study under the runtime manager.
//   pdrflow sweep [--jobs N] ...
//       Run a prefetch-policy × seed sweep (or, with --faults, a
//       fault-campaign seed sweep) through the parallel ScenarioRunner.
//   pdrflow serve --requests <log> [--devices N] [--jobs N] [--faults SPEC]
//       Drain a recorded reconfiguration-request log through the fleet
//       service (pdr::svc): sharded devices, bounded admission queues,
//       deadlines, circuit breakers and the shared single-flight
//       bitstream cache. Output is byte-identical for any --jobs value.
//   pdrflow explore <project-file> [--jobs N] [--top K]
//       Enumerate the schedule design space (mapping strategy × prefetch
//       × preloaded modules × variant selections), run every point
//       through the parallel ScenarioRunner and print the Pareto front
//       on (makespan, reconfiguration exposure).
//
// Every command is a thin layer of argument parsing over the pdr::flow
// pipeline presets: parsing, linting, synthesis, adequation and fault
// campaigns all run as cached pipeline stages, so e.g. `sweep` reuses one
// Modular Design bundle across all scenarios.
//
// `explore`, `sweep` and `serve` take `--jobs N`, the size of their
// worker pool. Their output is byte-identical whatever N is — merging is
// deterministic and wall-clock goes to stderr only.
//
// `build`, `adequation`, `simulate` and `sweep` accept `--trace-out FILE`
// (Chrome trace-event JSON, open in https://ui.perfetto.dev) and
// `--metrics-out FILE` (metrics registry JSON dump).
//
// Unknown commands and flags are hard errors: a typo like `--prefech`
// aborts with the list of valid flags instead of being silently ignored.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "aaa/adequation.hpp"
#include "aaa/constraints.hpp"
#include "fabric/bitstream.hpp"
#include "aaa/explorer.hpp"
#include "fault/campaign.hpp"
#include "flow/explorer.hpp"
#include "flow/pipeline.hpp"
#include "flow/scenario.hpp"
#include "lint/lint.hpp"
#include "mccdma/case_study.hpp"
#include "mccdma/flow_presets.hpp"
#include "mccdma/system.hpp"
#include "obs/sinks.hpp"
#include "plan/planner.hpp"
#include "rtr/manager.hpp"
#include "svc/request_log.hpp"
#include "svc/service.hpp"
#include "svc/service_rules.hpp"
#include "util/arg_parser.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "verify/verify.hpp"

using namespace pdr;
using util::ArgParser;

namespace {

int usage() {
  std::fputs(
      "usage:\n"
      "  pdrflow build <constraints-file> [--out DIR]\n"
      "  pdrflow check <constraints-or-project-file> [--json] [--werror] [--deep]\n"
      "  pdrflow inspect <bitstream.bit> --device NAME\n"
      "  pdrflow latency <constraints-file> [--bandwidth BYTES_PER_S]\n"
      "  pdrflow adequation <project-file> [--no-prefetch] [--reconfig-ms N]\n"
      "  pdrflow explore <project-file> [--top K] [--reconfig-ms N] [--max-points N]\n"
      "                  [--no-verify] [--floorplan] [--floorplan-candidates N] [--seed S]\n"
      "  pdrflow floorplan <project-file> [--seed S] [--rounds N] [--margin COLS]\n"
      "                    [--bandwidth BYTES_PER_S] [--baseline-width COLS] [--out FILE]\n"
      "  pdrflow simulate [--symbols N] [--seed S] [--prefetch none|schedule|history]\n"
      "                   [--cache BYTES] [--scrub-ms N]\n"
      "  pdrflow simulate --faults <spec-file> [--seed S] [--no-recovery]\n"
      "                   [--scrub-ms N] [--scrub-mode blind|readback] [--cache BYTES]\n"
      "  pdrflow sweep [--symbols N] [--seeds A,B,C] [--prefetch LIST]\n"
      "  pdrflow sweep --faults <spec-file> [--seeds A,B,C] [--no-recovery] [--scrub-ms N]\n"
      "  pdrflow serve --requests <log-file> [--devices N] [--queue N] [--tick-us N]\n"
      "                [--cache BYTES] [--faults <spec-file>] [--seed S] [--no-recovery]\n"
      "                [--no-degraded]\n"
      "  pdrflow devices\n"
      "explore/sweep/serve also accept --jobs N (worker threads); output is identical for any N\n"
      "build/adequation/explore/simulate/sweep also accept --trace-out FILE --metrics-out FILE\n",
      stderr);
  return 2;
}

/// Throws a pdr::Error whose message is printed verbatim (after one
/// "pdrflow: " prefix) by main's catch block.
[[noreturn]] void fail(const std::string& message) { throw Error(message); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) fail("cannot open '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::filesystem::path& path, std::span<const std::uint8_t> data) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data.data()), static_cast<std::streamsize>(data.size()));
  std::printf("  wrote %-40s (%s)\n", path.c_str(), human_bytes(data.size()).c_str());
}

/// Prints a lint report (if non-empty) and returns true when it should
/// abort the command (any error).
bool report_blocks(const lint::Report& report, const char* what) {
  if (!report.empty()) std::fputs(report.to_text().c_str(), stderr);
  if (report.errors() == 0) return false;
  std::fprintf(stderr, "pdrflow: %s failed the design-rule check\n", what);
  return true;
}

aaa::PrefetchChoice parse_prefetch_flag(const std::string& s) {
  if (s == "none") return aaa::PrefetchChoice::None;
  if (s == "schedule") return aaa::PrefetchChoice::Schedule;
  if (s == "history") return aaa::PrefetchChoice::History;
  fail("flag '--prefetch' must be none|schedule|history, got '" + s + "'");
}

/// Strictly-parsed element of a --seeds list.
std::uint64_t parse_seed(const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0')
    fail("'--seeds' needs unsigned integers, got '" + s + "'");
  return parsed;
}

int cmd_devices(int argc, char** argv) {
  const ArgParser args("devices", argc, argv, {}, 0);
  Table t({"device", "CLB array", "slices", "BRAM18", "MULT18", "frame bytes", "full bitstream"});
  for (const char* name : {"XC2V1000", "XC2V2000", "XC2V3000", "XC2V6000"}) {
    const fabric::DeviceModel d = fabric::device_by_name(name);
    t.row()
        .add(name)
        .add(strprintf("%dx%d", d.clb_rows, d.clb_cols))
        .add(d.total_slices())
        .add(d.total_brams())
        .add(d.total_mult18())
        .add(d.frame_bytes())
        .add(human_bytes(d.config_payload_bytes()));
  }
  t.print();
  return 0;
}

/// PDR12x pre-flight for a service request log, against the case-study
/// design (the bundle every `serve` fleet shards).
lint::Report check_request_log_against_case_study(const std::string& text) {
  flow::Pipeline pipeline = mccdma::constraints_pipeline(mccdma::case_study_constraints_text(),
                                                         mccdma::case_study_statics());
  const std::shared_ptr<const synth::DesignBundle> bundle = pipeline.bundle();
  rtr::BitstreamStore store = mccdma::make_case_study_store();
  rtr::NonePrefetch policy;
  const rtr::ReconfigManager manager(*bundle, rtr::sundance_manager_config(), store, policy);
  return svc::check_request_log_text(text, *bundle, manager);
}

int cmd_check(int argc, char** argv) {
  const ArgParser args("check", argc, argv,
                       {{"--json", false}, {"--werror", false}, {"--deep", false}}, 1);
  const std::string text = read_file(args.positional(0));
  // Dispatch on input kind: request logs get the PDR12x service family;
  // otherwise --deep adds pdr::verify's interval certification (the
  // PDR1xx hazard family) on top of the plain rule families.
  const lint::Report report = svc::looks_like_request_log(text)
                                  ? check_request_log_against_case_study(text)
                                  : (args.has("--deep") ? verify::deep_check_text(text)
                                                        : lint::check_text(text));
  if (args.has("--json")) {
    std::fputs(report.to_json().c_str(), stdout);
  } else if (report.empty()) {
    std::printf("%s: clean (0 diagnostics)\n", args.positional(0).c_str());
  } else {
    std::fputs(report.to_text().c_str(), stdout);
  }
  const bool failing = report.errors() > 0 || (args.has("--werror") && report.warnings() > 0);
  return failing ? 1 : 0;
}

int cmd_build(int argc, char** argv) {
  const ArgParser args("build", argc, argv,
                       {{"--out", true}, {"--trace-out", true}, {"--metrics-out", true}}, 1);
  obs::Recorder recorder;
  flow::Pipeline pipeline = mccdma::constraints_pipeline(read_file(args.positional(0)));
  pipeline.set_sinks(obs::Sinks(recorder));

  // Cheap constraint rules run first so a broken file reports every
  // violation (not just the first) before the flow spends time on it.
  if (report_blocks(*pipeline.lint_report(), "constraints file")) return 1;

  const std::string* out_flag = args.value("--out");
  const std::filesystem::path out_dir = out_flag ? *out_flag : "pdrflow_out";
  std::filesystem::create_directories(out_dir);

  const std::shared_ptr<const synth::DesignBundle> bundle = pipeline.bundle();
  std::fputs(bundle->floorplan.render().c_str(), stdout);

  Table t({"region", "variant", "slices", "fmax (MHz)", "bitstream", "% of device"});
  for (const auto& [region, variants] : bundle->dynamic_variants) {
    for (const auto& v : variants) {
      t.row()
          .add(region)
          .add(v.name)
          .add(v.usage.slices)
          .add(v.timing.fmax_mhz, 0)
          .add(human_bytes(v.bitstream.size()))
          .add(100.0 * bundle->floorplan.region_fraction(region), 1);
      write_file(out_dir / (v.name + "_partial.bit"), v.bitstream);
    }
  }
  t.print();
  for (const auto& [region, blank] : bundle->blank_streams)
    write_file(out_dir / (region + "_blank.bit"), blank->bytes());
  write_file(out_dir / "initial_full.bit", bundle->initial_bitstream);
  recorder.write(args.string_or("--trace-out", ""), args.string_or("--metrics-out", ""));
  return 0;
}

int cmd_inspect(int argc, char** argv) {
  const ArgParser args("inspect", argc, argv, {{"--device", true}}, 1);
  const std::string* device_name = args.value("--device");
  if (device_name == nullptr) fail("'inspect' requires --device NAME");
  const fabric::DeviceModel device = fabric::device_by_name(*device_name);

  const std::string blob = read_file(args.positional(0));
  const auto stream = fabric::ValidatedStream::parse(
      device, std::span(reinterpret_cast<const std::uint8_t*>(blob.data()), blob.size()));
  std::puts(fabric::describe_bitstream(*stream).c_str());

  const auto actions = fabric::decode_packets(*stream);
  Table t({"packet", "register", "payload words", "detail"});
  int i = 0;
  for (const auto& a : actions) {
    std::string detail;
    if (a.reg == fabric::ConfigReg::Far && !a.payload.empty())
      detail = fabric::FrameAddress::decode(a.payload[0]).to_string();
    if (a.reg == fabric::ConfigReg::Idcode && !a.payload.empty())
      detail = strprintf("0x%08x", a.payload[0]);
    const char* reg_name = a.reg == fabric::ConfigReg::Crc      ? "CRC"
                           : a.reg == fabric::ConfigReg::Far    ? "FAR"
                           : a.reg == fabric::ConfigReg::Fdri   ? "FDRI"
                           : a.reg == fabric::ConfigReg::Mfwr   ? "MFWR"
                           : a.reg == fabric::ConfigReg::Cmd    ? "CMD"
                           : a.reg == fabric::ConfigReg::Idcode ? "IDCODE"
                                                                : "?";
    t.row().add(i++).add(reg_name).add(std::uint64_t{a.payload.size()}).add(detail);
  }
  t.print();
  return 0;
}

int cmd_latency(int argc, char** argv) {
  const ArgParser args("latency", argc, argv, {{"--bandwidth", true}}, 1);
  const double bandwidth = args.double_or("--bandwidth", mccdma::kCaseStudyStoreBandwidth);

  flow::Pipeline pipeline = mccdma::constraints_pipeline(read_file(args.positional(0)));
  const std::shared_ptr<const aaa::ConstraintSet> constraints = pipeline.constraints();
  const std::shared_ptr<const synth::DesignBundle> bundle = pipeline.bundle();
  rtr::BitstreamStore store(bandwidth, mccdma::kCaseStudyStoreLatency);
  rtr::NonePrefetch policy;
  rtr::ManagerConfig cfg;
  cfg.manager =
      constraints->manager == aaa::Placement::Cpu ? aaa::Placement::Cpu : aaa::Placement::Fpga;
  cfg.builder = constraints->builder;
  cfg.port_kind = constraints->port == aaa::PortChoice::Icap        ? fabric::PortKind::Icap
                  : constraints->port == aaa::PortChoice::SelectMap ? fabric::PortKind::SelectMap
                                                                    : fabric::PortKind::Jtag;
  rtr::ReconfigManager manager(*bundle, cfg, store, policy);

  std::printf("memory bandwidth %.1f MB/s, port %s\n\n", bandwidth / 1e6,
              fabric::port_kind_name(cfg.port_kind));
  Table t({"region", "module", "cold (ms)", "staged (ms)", "staging (ms)"});
  for (const auto& [region, variants] : bundle->dynamic_variants)
    for (const auto& v : variants)
      t.row()
          .add(region)
          .add(v.name)
          .add(to_ms(manager.cold_load_latency(v.name)), 3)
          .add(to_ms(manager.staged_load_latency(v.name)), 3)
          .add(to_ms(manager.staging_time(v.name)), 3);
  t.print();
  return 0;
}

int cmd_adequation(int argc, char** argv) {
  const ArgParser args("adequation", argc, argv,
                       {{"--no-prefetch", false},
                        {"--reconfig-ms", true},
                        {"--trace-out", true},
                        {"--metrics-out", true}},
                       1);
  flow::PipelineOptions options;
  options.project_text = read_file(args.positional(0));
  options.reconfig_cost = static_cast<TimeNs>(args.double_or("--reconfig-ms", 4.0) * 1e6);
  options.prefetch = !args.has("--no-prefetch");
  options.lint_gate = false;  // the CLI prints the report itself and decides
  flow::Pipeline pipeline(std::move(options));

  const std::shared_ptr<const aaa::Project> project = pipeline.project();
  const std::shared_ptr<const flow::AdequationArtifacts> adeq = pipeline.adequation();

  // The schedule and executive rule families are cheap; the pipeline ran
  // them with the stage — print before anything looks authoritative.
  if (report_blocks(adeq->report, "schedule/executive")) return 1;

  std::printf("project '%s': %zu operations on %zu operators\n\n", project->name.c_str(),
              project->algorithm.size(), project->architecture.operators().size());
  std::fputs(adeq->schedule.to_string().c_str(), stdout);
  std::puts("");
  std::fputs(adeq->schedule.gantt().c_str(), stdout);
  std::puts("\nsynchronized executive:");
  std::fputs(adeq->executive.to_string().c_str(), stdout);

  obs::Recorder recorder;
  aaa::export_schedule(adeq->schedule, recorder.tracer);
  recorder.metrics.counter("adequation.reconfigs").add(adeq->schedule.reconfig_count);
  recorder.metrics.gauge("adequation.makespan_ns")
      .set(static_cast<double>(adeq->schedule.makespan));
  recorder.metrics.gauge("adequation.reconfig_exposed_ns")
      .set(static_cast<double>(adeq->schedule.reconfig_exposed));
  recorder.write(args.string_or("--trace-out", ""), args.string_or("--metrics-out", ""));
  return 0;
}

/// `explore`: enumerate the schedule design space of a project file and
/// print the Pareto front on (makespan, reconfiguration exposure). The
/// per-point bodies run on the ScenarioRunner pool; stdout is
/// byte-identical for any --jobs value.
int cmd_explore(int argc, char** argv) {
  const ArgParser args("explore", argc, argv,
                       {{"--top", true},
                        {"--reconfig-ms", true},
                        {"--max-points", true},
                        {"--no-verify", false},
                        {"--floorplan", false},
                        {"--floorplan-candidates", true},
                        {"--seed", true},
                        {"--jobs", true},
                        {"--trace-out", true},
                        {"--metrics-out", true}},
                       1);
  const int jobs = static_cast<int>(args.uint_or("--jobs", 1));
  flow::PipelineOptions options;
  options.project_text = read_file(args.positional(0));
  flow::Pipeline pipeline(std::move(options));
  const std::shared_ptr<const aaa::Project> project = pipeline.project();

  flow::ExplorerOptions explorer_options;
  explorer_options.jobs = jobs;
  explorer_options.reconfig_cost = static_cast<TimeNs>(args.double_or("--reconfig-ms", 4.0) * 1e6);
  explorer_options.max_points =
      static_cast<std::size_t>(args.uint_or("--max-points", explorer_options.max_points));
  explorer_options.static_pruning = !args.has("--no-verify");

  aaa::ExplorationSpace space = aaa::ExplorationSpace::from_project(*project);
  if (args.has("--floorplan")) {
    // The planner runs once, serially, before the sweep; the axis carries
    // only priced choices, so --jobs never touches the plan itself.
    plan::PlanOptions plan_options;
    plan_options.seed = args.uint_or("--seed", plan_options.seed);
    space.floorplans = plan::floorplan_axis(
        *project, plan_options,
        static_cast<std::size_t>(args.uint_or("--floorplan-candidates", 3)));
  }

  const flow::DesignSpaceExplorer explorer(*project, space, explorer_options);
  const flow::ExplorationReport report = explorer.run();

  std::printf("project '%s': %zu operations on %zu operators\n", project->name.c_str(),
              project->algorithm.size(), project->architecture.operators().size());
  std::fputs(report.to_string(static_cast<std::size_t>(args.uint_or("--top", 0))).c_str(), stdout);
  std::fprintf(stderr, "explore: %zu points, jobs=%d, %.0f ms wall, %zu pruned, %zu failed\n",
               report.points.size(), jobs, report.sweep.wall_ms, report.pruned_points(),
               report.failed_points());
  report.sweep.recorder.write(args.string_or("--trace-out", ""),
                              args.string_or("--metrics-out", ""));
  // Infeasible points are expected (the space is exhaustive); an empty
  // front means nothing scheduled at all — that is the failure.
  return report.pareto.empty() ? 1 : 0;
}

int cmd_floorplan(int argc, char** argv) {
  const ArgParser args("floorplan", argc, argv,
                       {{"--seed", true},
                        {"--rounds", true},
                        {"--margin", true},
                        {"--bandwidth", true},
                        {"--baseline-width", true},
                        {"--out", true}},
                       1);
  flow::PipelineOptions options;
  options.project_text = read_file(args.positional(0));
  flow::Pipeline pipeline(std::move(options));
  const std::shared_ptr<const aaa::Project> project = pipeline.project();

  plan::PlanOptions plan_options;
  plan_options.seed = args.uint_or("--seed", plan_options.seed);
  plan_options.max_rounds = static_cast<int>(args.uint_or("--rounds", plan_options.max_rounds));
  plan_options.margin_cols = static_cast<int>(args.uint_or("--margin", plan_options.margin_cols));
  plan_options.store_bandwidth_bytes_per_s =
      args.double_or("--bandwidth", plan_options.store_bandwidth_bytes_per_s);

  const plan::PlanResult result = plan::plan_floorplan(*project, plan_options);
  std::fputs(result.to_string().c_str(), stdout);

  // --baseline-width N: price a hand-written uniform width the same way
  // and report the comparison (the paper's case study hand-places D1 at 5
  // CLB columns).
  if (args.has("--baseline-width")) {
    const int baseline = static_cast<int>(args.uint_or("--baseline-width", 5));
    std::map<std::string, int> widths;
    for (const auto& r : result.regions) widths[r.name] = baseline;
    const plan::PlanResult fixed = plan::plan_fixed(*project, widths, plan_options);
    std::printf("baseline (uniform width %d): makespan %.3f ms, reconfig exposed %.3f ms\n",
                baseline, static_cast<double>(fixed.makespan) / 1e6,
                static_cast<double>(fixed.reconfig_exposed) / 1e6);
    std::printf("planned vs baseline: %+.3f ms makespan\n",
                static_cast<double>(result.makespan - fixed.makespan) / 1e6);
  }

  std::fputs("\nconstraints fragment:\n", stdout);
  std::fputs(result.constraints_fragment().c_str(), stdout);
  if (const std::string* out_path = args.value("--out")) {
    std::ofstream out(*out_path, std::ios::binary);
    if (!out.good()) fail("cannot write '" + *out_path + "'");
    out << result.constraints_fragment();
    std::fprintf(stderr, "floorplan: wrote %s\n", out_path->c_str());
  }
  std::fprintf(stderr, "floorplan: %zu region(s), %d rounds, %d schedules evaluated\n",
               result.regions.size(), result.rounds, result.evaluated);
  return (result.lint.errors() == 0 && result.certified) ? 0 : 1;
}

/// Maps the simulate/sweep fault flags onto pipeline FaultCampaignOptions.
flow::FaultCampaignOptions fault_options_from(const ArgParser& args) {
  flow::FaultCampaignOptions opts;
  opts.seed = args.uint_or("--seed", 0);  // 0 = the spec's own seed
  opts.recovery = !args.has("--no-recovery");
  opts.cache_capacity = static_cast<Bytes>(args.uint_or("--cache", 0));
  if (args.has("--scrub-ms"))
    opts.scrub_period = static_cast<TimeNs>(args.double_or("--scrub-ms", 0.0) * 1e6);
  if (const std::string* mode = args.value("--scrub-mode")) {
    if (*mode == "blind")
      opts.scrub_mode = fault::ScrubScheduler::Mode::Blind;
    else if (*mode == "readback")
      opts.scrub_mode = fault::ScrubScheduler::Mode::ReadbackTriggered;
    else
      fail("flag '--scrub-mode' must be blind|readback, got '" + *mode + "'");
  }
  return opts;
}

/// `simulate --faults`: a seeded fault-injection campaign on the case
/// study's design bundle instead of the symbol-level transmitter run.
/// The printed report is bit-identical for the same (spec, seed) pair.
int simulate_faults(const ArgParser& args) {
  const flow::FaultCampaignOptions opts = fault_options_from(args);

  obs::Recorder recorder;
  flow::Pipeline pipeline = mccdma::constraints_pipeline(mccdma::case_study_constraints_text(),
                                                         mccdma::case_study_statics());
  pipeline.set_sinks(obs::Sinks(recorder));
  const std::shared_ptr<const fault::CampaignReport> report =
      pipeline.fault_campaign(read_file(*args.value("--faults")), opts);
  std::fputs(report->to_string().c_str(), stdout);
  recorder.write(args.string_or("--trace-out", ""), args.string_or("--metrics-out", ""));
  // With recovery on, any region left unhealthy is a failed campaign.
  return opts.recovery && !report->all_healthy() ? 1 : 0;
}

int cmd_simulate(int argc, char** argv) {
  const ArgParser args("simulate", argc, argv,
                       {{"--symbols", true},
                        {"--seed", true},
                        {"--prefetch", true},
                        {"--cache", true},
                        {"--scrub-ms", true},
                        {"--scrub-mode", true},
                        {"--faults", true},
                        {"--no-recovery", false},
                        {"--trace-out", true},
                        {"--metrics-out", true}},
                       0);
  if (args.has("--faults")) return simulate_faults(args);
  if (args.has("--no-recovery") || args.has("--scrub-mode"))
    fail("flags '--no-recovery' and '--scrub-mode' require '--faults <spec-file>'");
  const std::size_t n_symbols = static_cast<std::size_t>(args.uint_or("--symbols", 4096));

  // The case study's own constraints pass through the linter first — the
  // cheap rule families guard every simulation entry point.
  flow::Pipeline gate = mccdma::constraints_pipeline(mccdma::case_study_constraints_text());
  if (report_blocks(*gate.lint_report(), "case-study constraints")) return 1;

  mccdma::SystemConfig config;
  config.manager = rtr::sundance_manager_config();
  config.seed = args.uint_or("--seed", config.seed);
  if (args.has("--cache"))
    config.manager.cache_capacity = static_cast<Bytes>(args.uint_or("--cache", 0));
  if (args.has("--scrub-ms"))
    config.scrub_period = static_cast<TimeNs>(args.double_or("--scrub-ms", 0.0) * 1e6);
  if (const std::string* prefetch = args.value("--prefetch"))
    config.prefetch = parse_prefetch_flag(*prefetch);

  obs::Recorder recorder;
  config.sinks = obs::Sinks(recorder);

  mccdma::TransmitterSystem system(mccdma::shared_case_study(), config);
  const mccdma::SystemReport report = system.run(n_symbols);
  std::fputs(mccdma::format_system_report(report, config).c_str(), stdout);

  recorder.write(args.string_or("--trace-out", ""), args.string_or("--metrics-out", ""));
  return 0;
}

/// `sweep`: N independent scenarios through the parallel ScenarioRunner.
/// Default: prefetch {none,schedule,history} × seeds {42,43,44} — nine
/// transmitter runs. With --faults, one campaign per seed instead.
/// stdout (the combined report) is byte-identical for any --jobs value.
int cmd_sweep(int argc, char** argv) {
  const ArgParser args("sweep", argc, argv,
                       {{"--symbols", true},
                        {"--seeds", true},
                        {"--prefetch", true},
                        {"--faults", true},
                        {"--no-recovery", false},
                        {"--scrub-ms", true},
                        {"--scrub-mode", true},
                        {"--cache", true},
                        {"--jobs", true},
                        {"--trace-out", true},
                        {"--metrics-out", true}},
                       0);
  std::vector<std::uint64_t> seeds;
  for (const std::string& s : args.list_or("--seeds", {"42", "43", "44"}))
    seeds.push_back(parse_seed(s));

  std::vector<flow::Scenario> scenarios;
  if (const std::string* spec_path = args.value("--faults")) {
    const std::string spec_text = read_file(*spec_path);
    flow::FaultCampaignOptions opts = fault_options_from(args);
    for (const std::uint64_t seed : seeds) {
      opts.seed = seed;
      scenarios.push_back(mccdma::campaign_scenario(
          strprintf("faults/seed=%llu", static_cast<unsigned long long>(seed)), spec_text, opts));
    }
  } else {
    if (args.has("--no-recovery") || args.has("--scrub-mode") || args.has("--cache"))
      fail("flags '--no-recovery', '--scrub-mode' and '--cache' require '--faults <spec-file>'");
    const auto symbols = static_cast<std::size_t>(args.uint_or("--symbols", 2048));
    const std::vector<std::string> policies =
        args.list_or("--prefetch", {"none", "schedule", "history"});
    for (const std::string& policy : policies) {
      for (const std::uint64_t seed : seeds) {
        mccdma::SystemConfig config =
            mccdma::sweep_system_config(parse_prefetch_flag(policy), seed);
        if (args.has("--scrub-ms"))
          config.scrub_period = static_cast<TimeNs>(args.double_or("--scrub-ms", 0.0) * 1e6);
        scenarios.push_back(mccdma::transmitter_scenario(
            strprintf("prefetch=%s/seed=%llu", policy.c_str(),
                      static_cast<unsigned long long>(seed)),
            config, symbols));
      }
    }
  }

  // Build the bundle the workers read once, on this thread, so they start
  // from a hot artifact cache instead of serializing on the first build,
  // and every scenario records the same cache hits at any --jobs.
  if (args.has("--faults"))
    mccdma::constraints_pipeline(mccdma::case_study_constraints_text(),
                                 mccdma::case_study_statics())
        .bundle();
  else
    mccdma::shared_case_study();

  const flow::ScenarioRunner runner(static_cast<int>(args.uint_or("--jobs", 1)));
  const flow::SweepResult sweep = runner.run(scenarios);
  std::fputs(sweep.combined_report().c_str(), stdout);
  std::fprintf(stderr, "sweep: %zu scenarios, jobs=%d, %.0f ms wall, %zu failed\n",
               sweep.results.size(), runner.jobs(), sweep.wall_ms, sweep.failures());
  sweep.recorder.write(args.string_or("--trace-out", ""), args.string_or("--metrics-out", ""));
  return sweep.failures() == 0 ? 0 : 1;
}

/// `serve`: drain a recorded request log through the fleet service.
/// stdout (the service report) is byte-identical for any --jobs value —
/// the determinism CI pins with a byte diff.
int cmd_serve(int argc, char** argv) {
  const ArgParser args("serve", argc, argv,
                       {{"--requests", true},
                        {"--devices", true},
                        {"--queue", true},
                        {"--tick-us", true},
                        {"--cache", true},
                        {"--faults", true},
                        {"--seed", true},
                        {"--no-recovery", false},
                        {"--no-degraded", false},
                        {"--jobs", true},
                        {"--trace-out", true},
                        {"--metrics-out", true}},
                       0);
  const int jobs = static_cast<int>(args.uint_or("--jobs", 1));
  const std::string* requests_path = args.value("--requests");
  if (requests_path == nullptr) fail("'serve' requires --requests <log-file>");

  flow::Pipeline pipeline = mccdma::constraints_pipeline(mccdma::case_study_constraints_text(),
                                                         mccdma::case_study_statics());
  const std::shared_ptr<const synth::DesignBundle> bundle = pipeline.bundle();

  svc::RequestLog log = svc::parse_request_log(read_file(*requests_path));
  if (args.has("--devices")) {
    const auto devices = args.uint_or("--devices", 0);
    if (devices < 1) fail("flag '--devices' must be >= 1");
    log.devices = static_cast<int>(devices);
  }

  svc::ServiceConfig config;
  config.jobs = jobs;
  config.manager = rtr::sundance_manager_config();
  config.manager.recovery.enabled = !args.has("--no-recovery");
  config.store_bandwidth_bytes_per_s = mccdma::kCaseStudyStoreBandwidth;
  config.store_latency = mccdma::kCaseStudyStoreLatency;
  if (args.has("--queue"))
    config.queue_capacity = static_cast<std::size_t>(args.uint_or("--queue", 8));
  if (args.has("--tick-us"))
    config.tick = static_cast<TimeNs>(args.double_or("--tick-us", 1000.0) * 1e3);
  if (args.has("--cache"))
    config.fleet_cache_capacity = static_cast<Bytes>(args.uint_or("--cache", 0));
  config.degraded_routes = !args.has("--no-degraded");
  config.fault_seed = args.uint_or("--seed", 0);

  // PDR12x pre-flight: a log that would misroute or trivially time out
  // never reaches the fleet.
  {
    rtr::BitstreamStore lint_store = mccdma::make_case_study_store();
    rtr::NonePrefetch lint_policy;
    const rtr::ReconfigManager lint_manager(*bundle, config.manager, lint_store, lint_policy);
    if (report_blocks(svc::check_request_log(log, *bundle, lint_manager), "request log")) return 1;
  }

  obs::Recorder recorder;
  svc::FleetService service(*bundle, config);
  service.set_sinks(obs::Sinks(recorder));
  if (const std::string* spec_path = args.value("--faults"))
    service.arm_faults(fault::parse_fault_spec(read_file(*spec_path)));
  const svc::ServiceReport report = service.run(log);
  std::fputs(report.to_string().c_str(), stdout);
  std::fprintf(stderr, "serve: %zu requests on %d device(s), jobs=%d\n", report.records.size(),
               report.devices, jobs);
  recorder.write(args.string_or("--trace-out", ""), args.string_or("--metrics-out", ""));
  // A clean drain exits 0. Under an armed fault campaign, failures are
  // the point of the exercise, not a broken run.
  return (args.has("--faults") || report.failed == 0) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string cmd = argv[1];
    if (cmd == "devices") return cmd_devices(argc - 2, argv + 2);
    if (cmd == "build") return cmd_build(argc - 2, argv + 2);
    if (cmd == "check") return cmd_check(argc - 2, argv + 2);
    if (cmd == "inspect") return cmd_inspect(argc - 2, argv + 2);
    if (cmd == "latency") return cmd_latency(argc - 2, argv + 2);
    if (cmd == "adequation") return cmd_adequation(argc - 2, argv + 2);
    if (cmd == "explore") return cmd_explore(argc - 2, argv + 2);
    if (cmd == "floorplan") return cmd_floorplan(argc - 2, argv + 2);
    if (cmd == "simulate") return cmd_simulate(argc - 2, argv + 2);
    if (cmd == "sweep") return cmd_sweep(argc - 2, argv + 2);
    if (cmd == "serve") return cmd_serve(argc - 2, argv + 2);
    std::fprintf(stderr, "pdrflow: unknown command '%s'\n", cmd.c_str());
  } catch (const pdr::Error& e) {
    std::fprintf(stderr, "pdrflow: %s\n", e.what());
    return 1;
  }
  return usage();
}
