// pdrbench: runs one workload for a fixed wall-clock budget and prints
// its metrics; the last line of stdout is one JSON object
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage:
//   pdrbench --workload <design|codesign|fleet|campaigns> --seed N
//            --seconds S --trace 0|1 [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics from untraced iterations.
// --trace 1 alternates traced and untraced iterations, reports every
// per-layer metric (span times from the traced ones; the tracing overhead
// is the difference between the two medians) and prints the per-layer
// table. Inputs are a pure function of the seed.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>

#include "harness.hpp"
#include "util/arg_parser.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

using pdr::strprintf;
using namespace pdrbench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, emitted by every workload (0 where the
/// workload does not run the layer). Span times are mean ms per call.
const std::vector<MetricSpec> kPerLayer = {
    // set-up split
    {"bench.generate_graph.ms", "ms"},
    {"svc.generate_request_log.ms", "ms"},
    {"mccdma.case_study.ms", "ms"},
    // harness
    {"iteration.ms", "ms"},
    {"trace.overhead_pct", "%"},
    // design
    {"aaa.adequation.run.ms", "ms"},
    {"verify.verify_schedule.ms", "ms"},
    {"lint.check_schedule.ms", "ms"},
    {"aaa.generate_executive.ms", "ms"},
    {"aaa.codegen_m4.ms", "ms"},
    {"aaa.schedule.to_csv.ms", "ms"},
    {"aaa.schedule.items", "count"},
    {"aaa.macro.instrs", "count"},
    {"aaa.m4.bytes", "B"},
    {"verify.violations", "count"},
    {"design.makespan_ms", "ms"},
    // codesign
    {"plan.plan_floorplan.ms", "ms"},
    {"plan.floorplan_axis.ms", "ms"},
    {"flow.explorer.run.ms", "ms"},
    {"plan.evaluated", "count"},
    {"plan.rounds", "count"},
    {"plan.axis_choices", "count"},
    {"flow.explorer.points", "count"},
    {"flow.explorer.pruned", "count"},
    {"flow.explorer.failed", "count"},
    {"flow.explorer.pareto_points", "count"},
    {"codesign.best_makespan_ms", "ms"},
    // fleet
    {"svc.run.ms", "ms"},
    {"svc.disp.completed", "count"},
    {"svc.disp.degraded", "count"},
    {"svc.disp.failed", "count"},
    {"svc.disp.timed_out", "count"},
    {"svc.disp.rejected_queue_full", "count"},
    {"svc.disp.rejected_breaker_open", "count"},
    {"svc.disp.shed", "count"},
    {"svc.admitted", "count"},
    {"svc.rerouted", "count"},
    {"svc.ticks", "count"},
    {"svc.cache.fetches", "count"},
    {"svc.cache.served", "count"},
    {"svc.cache.coalesced", "count"},
    {"svc.cache.evictions", "count"},
    {"svc.cache.hit_ratio", "ratio"},
    {"svc.cache.hit_ratio.base", "count"},
    {"fleet.stall_ms.p50", "ms"},
    {"fleet.stall_ms.p99", "ms"},
    {"fleet.stall.samples", "count"},
    {"fleet.on_time_frac", "ratio"},
    // reconfiguration manager (fleet and campaigns)
    {"rtr.requests", "count"},
    {"rtr.misses", "count"},
    {"rtr.bytes_loaded", "B"},
    {"rtr.crc_rejects", "count"},
    {"rtr.port_aborts", "count"},
    {"rtr.retries", "count"},
    {"rtr.fallbacks", "count"},
    {"rtr.load_success_ratio", "ratio"},
    {"rtr.load_success_ratio.base", "count"},
    {"rtr.load_time_ms", "ms"},
    {"rtr.stall_ms", "ms"},
    // campaigns
    {"fault.run_campaign.ms", "ms"},
    {"fault.seus_injected", "count"},
    {"fault.fetch_corruptions", "count"},
    {"fault.port_aborts_armed", "count"},
    {"fault.scrub.scrubs", "count"},
    {"fault.scrub.frames_repaired", "count"},
    {"sim.port_busy_frac", "ratio"},
    {"campaigns.seu_exposure_ms", "ms"},
};

/// Throughput is taken at this quantile of the untraced iteration times.
/// Every iteration does the same work, and on a shared host other tenants
/// only ever slow one down, for seconds at a time: over ten codesign runs
/// the median spread by 0.27-0.30 of itself, the 10th percentile by
/// 0.09-0.14.
constexpr double kThroughputQuantile = 0.1;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string json_number(double v) {
  PDR_CHECK(std::isfinite(v), "pdrbench", "metric value is not finite");
  return strprintf("%.17g", v);
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  try {
    const pdr::util::ArgParser args(
        "pdrbench", argc - 1, argv + 1,
        {{"--workload", true}, {"--seed", true}, {"--seconds", true}, {"--trace", true},
         {"--trace-out", true}},
        0);
    const std::string* name = args.value("--workload");
    PDR_CHECK(name != nullptr, "pdrbench", "--workload is required");
    const std::uint64_t seed = args.uint_or("--seed", 1);
    const double seconds = args.double_or("--seconds", 10.0);
    const bool trace = args.uint_or("--trace", 0) != 0;
    PDR_CHECK(seconds > 0, "pdrbench", "--seconds must be positive");

    std::unique_ptr<Workload> workload = make_workload(*name);
    Spans spans;
    std::printf("pdrbench workload %s seed %llu seconds %g trace %d\n", name->c_str(),
                static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0);

    // Set-up, at least three times: each call regenerates the inputs from
    // the seed (and rebuilds the case-study bundle cold); the median is
    // setup_s. Cheap set-ups repeat until half a second of samples, so the
    // median holds still from run to run.
    std::vector<double> setup_s;
    double setup_total = 0;
    spans.set_enabled(trace);
    while (setup_s.size() < 3 || (setup_total < 0.5 && setup_s.size() < 200)) {
      const auto t0 = std::chrono::steady_clock::now();
      workload->setup(seed, spans);
      setup_s.push_back(seconds_since(t0));
      setup_total += setup_s.back();
    }

    // Closed loop, one client: the next iteration starts when the last
    // one's outputs are checked. Iteration 0 warms up and is not timed
    // into the medians. With tracing, odd iterations are traced.
    std::vector<double> plain_s;
    std::vector<double> traced_s;
    long attempted = 0;
    long failed = 0;
    std::uint64_t digest = 0;
    const auto loop_start = std::chrono::steady_clock::now();
    for (int i = 0;; ++i) {
      const bool traced = trace && i % 2 == 1;
      spans.set_enabled(traced);
      spans.set_iteration(i);
      const int root = spans.begin("bench", "iteration");
      const auto t0 = std::chrono::steady_clock::now();
      workload->iterate(spans);
      const double wall = seconds_since(t0);
      spans.end(root);
      if (i > 0) (traced ? traced_s : plain_s).push_back(wall);

      const CheckResult check = workload->check();
      attempted += workload->units_per_iteration();
      std::string error = check.error;
      if (i == 0) digest = check.digest;
      if (error.empty() && check.digest != digest)
        error = strprintf("output digest %016llx differs from the first iteration's %016llx",
                          static_cast<unsigned long long>(check.digest),
                          static_cast<unsigned long long>(digest));
      if (!error.empty()) {
        failed += workload->units_per_iteration();
        std::printf("FAILED iteration %d: %s\n", i, error.c_str());
      }

      const double elapsed = seconds_since(loop_start);
      const bool enough = plain_s.size() >= 3 && (!trace || traced_s.size() >= 3);
      // The second clause bounds a run whose iterations are far slower
      // than expected.
      const bool some = !plain_s.empty() && (!trace || !traced_s.empty());
      if ((elapsed >= seconds && enough) || (elapsed >= 3 * seconds && some)) break;
    }

    const double iteration_s = median(plain_s);
    const double fast_iteration_s = quantile(plain_s, kThroughputQuantile);
    std::printf("set-up %.6f s median of %zu; %zu timed iterations, median %.3f s, q%g %.3f s\n",
                median(setup_s), setup_s.size(), plain_s.size() + traced_s.size(), iteration_s,
                kThroughputQuantile, fast_iteration_s);
    std::string times = "untraced iterations (ms):";
    for (const double s : plain_s) times += strprintf(" %.1f", s * 1e3);
    std::printf("%s\n", times.c_str());
    // Full precision, so that run.py can pool the samples of several
    // processes before taking the quantile.
    std::string samples = "throughput samples (1/s):";
    for (const double s : plain_s) samples += " " + json_number(workload->work_per_iteration() / s);
    std::printf("%s\n", samples.c_str());
    for (const std::string& line : workload->summary(fast_iteration_s))
      std::printf("%s\n", line.c_str());
    std::printf("digest %s seed %llu: %016llx\n", name->c_str(),
                static_cast<unsigned long long>(seed), static_cast<unsigned long long>(digest));
    std::printf("checks: %ld of %ld passed\n", attempted - failed, attempted);

    std::vector<std::pair<MetricSpec, double>> metrics;
    if (!trace) {
      metrics = {
          {{"setup_s", "s"}, median(setup_s)},
          {{"peak_rss_mb", "MB"}, peak_rss_mb()},
          {{"throughput_per_s", "1/s"}, workload->work_per_iteration() / fast_iteration_s},
          {{"sim_ms", "ms"}, workload->sim_ms()},
          {{"success_frac", "ratio"}, workload->success_frac()},
      };
    } else {
      std::map<std::string, double> values;
      workload->counts(values);
      const std::vector<LayerRow> rows = layer_rows(spans.records());
      for (const LayerRow& row : rows)
        if (row.name != "iteration") values[row.name + ".ms"] = row.total_ms / row.calls;
      // Set-up spans: mean over the set-ups.
      std::map<std::string, std::pair<double, int>> setup_ms;
      for (const auto& r : spans.records()) {
        if (r.iteration >= 0) continue;
        auto& [total, calls] = setup_ms[r.name];
        total += pdr::to_ms(r.end - r.start);
        ++calls;
      }
      for (const auto& [span, acc] : setup_ms) values[span + ".ms"] = acc.first / acc.second;
      const double traced_iteration_s = median(traced_s);
      values["iteration.ms"] = traced_iteration_s * 1e3;
      values["trace.overhead_pct"] = 100.0 * (traced_iteration_s - iteration_s) / iteration_s;

      std::set<std::string> known;
      for (const MetricSpec& spec : kPerLayer) {
        known.insert(spec.name);
        const auto it = values.find(spec.name);
        metrics.push_back({spec, it != values.end() ? it->second : 0.0});
      }
      for (const auto& [metric, value] : values)
        PDR_CHECK(known.count(metric) > 0, "pdrbench", "metric '" + metric + "' is not declared");

      double traced_wall_ms = 0;
      for (const LayerRow& row : rows)
        if (row.name == "iteration") traced_wall_ms = row.total_ms;
      std::printf("\nper-layer spans over %zu traced iterations (untraced median %.3f ms, traced "
                  "median %.3f ms, tracing overhead %+.2f %%):\n%s",
                  traced_s.size(), iteration_s * 1e3, traced_iteration_s * 1e3,
                  values["trace.overhead_pct"], layer_table(rows, traced_wall_ms).c_str());
      if (const std::string* path = args.value("--trace-out")) {
        spans.write_chrome_json(*path);
        std::printf("chrome trace: %s (%zu spans)\n", path->c_str(), spans.records().size());
      }
    }

    std::printf("\n");
    for (const auto& [spec, value] : metrics)
      std::printf("%-32s %18.6f %s\n", spec.name, value, spec.unit);
    std::string json =
        strprintf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
                  failed == 0 ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
      json += strprintf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                        metrics[i].first.name, json_number(metrics[i].second).c_str(),
                        metrics[i].first.unit);
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdrbench: %s\n", e.what());
    return 1;
  }
}
