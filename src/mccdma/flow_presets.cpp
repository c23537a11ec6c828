#include "mccdma/flow_presets.hpp"

#include <utility>

#include "aaa/project_io.hpp"
#include "rtr/manager.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace pdr::mccdma {

flow::Pipeline case_study_pipeline() {
  flow::PipelineOptions options;
  options.constraints_text = case_study_constraints_text();
  options.statics = case_study_statics();

  aaa::Project project;
  project.name = "mccdma_tx";
  project.algorithm = make_transmitter_algorithm(McCdmaParams{});
  project.architecture = aaa::make_sundance_architecture();
  project.durations = aaa::mccdma_durations();
  options.project_text = aaa::write_project(project);

  // Per-variant costs through the case-study store/ICAP model. The
  // callback is opaque to the cache; the tag names this cost model.
  options.reconfig_cost_fn = case_study_reconfig_cost(shared_case_study().bundle);
  options.reconfig_cost_tag = "case_study_store";
  options.apply_constraints = true;
  options.preloaded = {{"D1", "qpsk"}};
  return flow::Pipeline(std::move(options));
}

flow::Pipeline constraints_pipeline(std::string constraints_text,
                                    std::vector<synth::ModuleSpec> statics) {
  flow::PipelineOptions options;
  options.constraints_text = std::move(constraints_text);
  options.statics = std::move(statics);
  return flow::Pipeline(std::move(options));
}

SystemConfig sweep_system_config(aaa::PrefetchChoice prefetch, std::uint64_t seed) {
  SystemConfig config;
  config.manager = rtr::sundance_manager_config();
  config.prefetch = prefetch;
  config.seed = seed;
  return config;
}

std::string format_system_report(const SystemReport& report, const SystemConfig& config) {
  std::string out = strprintf("MC-CDMA transmitter, %zu symbols, prefetch=%s\n\n", report.symbols,
                              aaa::to_keyword(config.prefetch));
  Table t({"metric", "value"});
  t.row().add("elapsed (ms)").add(to_ms(report.elapsed), 3);
  t.row().add("stall (ms)").add(to_ms(report.stall_total), 3);
  t.row().add("stall fraction (%)").add(100.0 * report.stall_fraction(), 2);
  t.row().add("throughput (Mb/s)").add(report.throughput_bps() / 1e6, 2);
  t.row().add("modulation switches").add(report.switches);
  t.row().add("mean SNR (dB)").add(report.mean_snr_db, 1);
  out += t.to_markdown();

  const rtr::ManagerStats& m = report.manager;
  out += "\nreconfiguration manager:\n";
  Table mt({"stat", "value"});
  mt.row().add("requests").add(m.requests);
  mt.row().add("already loaded").add(m.already_loaded);
  mt.row().add("prefetch hits").add(m.prefetch_hits);
  mt.row().add("prefetch in-flight").add(m.prefetch_inflight);
  mt.row().add("cache hits").add(m.cache_hits);
  mt.row().add("misses").add(m.misses);
  mt.row().add("prefetches issued").add(m.prefetches_issued);
  mt.row().add("prefetches wasted").add(m.prefetches_wasted);
  mt.row().add("scrubs").add(m.scrubs);
  mt.row().add("blanks").add(m.blanks);
  mt.row().add("load failures").add(m.load_failures);
  mt.row().add("retries").add(m.retries);
  mt.row().add("fallbacks").add(m.fallbacks);
  mt.row().add("scrub repairs").add(m.scrub_repairs);
  mt.row().add("total load time (ms)").add(to_ms(m.total_load_time), 3);
  mt.row().add("bytes loaded").add(human_bytes(m.bytes_loaded));
  out += mt.to_markdown();
  return out;
}

flow::Scenario transmitter_scenario(std::string name, SystemConfig config, std::size_t symbols) {
  return flow::Scenario{
      std::move(name), [config, symbols](obs::Sinks sinks) mutable {
        config.sinks = sinks;
        TransmitterSystem system(shared_case_study(), config);
        const SystemReport report = system.run(symbols);
        return format_system_report(report, config);
      }};
}

flow::Scenario campaign_scenario(std::string name, std::string spec_text,
                                 flow::FaultCampaignOptions options) {
  return flow::Scenario{
      std::move(name),
      [spec_text = std::move(spec_text), options](obs::Sinks sinks) {
        flow::Pipeline pipeline =
            constraints_pipeline(case_study_constraints_text(), case_study_statics());
        pipeline.set_sinks(sinks);
        return pipeline.fault_campaign(spec_text, options)->to_string();
      }};
}

}  // namespace pdr::mccdma
