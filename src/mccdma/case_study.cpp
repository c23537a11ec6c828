#include "mccdma/case_study.hpp"

#include "fabric/config_port.hpp"
#include "flow/pipeline.hpp"
#include "lint/constraint_rules.hpp"
#include "util/error.hpp"

namespace pdr::mccdma {

std::string case_study_constraints_text() {
  return R"(# Reconfigurable MC-CDMA transmitter (paper section 6, Figure 4)
device XC2V2000
port icap            # standalone self-reconfiguration (Figure 2 case a)
manager fpga
builder fpga
prefetch schedule

region D1 {
  width 5            # 5/48 CLB columns ~= 8% of the device (paper: "8%")
}

dynamic qpsk {
  region D1
  kind qpsk_mapper
  load startup
  unload lazy
}

dynamic qam16 {
  region D1
  kind qam16_mapper
  load on_demand
  unload lazy
}

exclude qpsk qam16          # both implement block 'modulation'
relation qpsk then qam16    # SNR rises: QAM-16 usually follows QPSK
relation qam16 then qpsk
)";
}

aaa::AlgorithmGraph make_transmitter_algorithm(const McCdmaParams& params) {
  const auto n = static_cast<int>(params.n_subcarriers);
  const auto sf = static_cast<int>(params.spreading_factor);
  const auto cp = static_cast<int>(params.cyclic_prefix);
  const auto users = static_cast<int>(params.n_users);

  // Per-iteration (one OFDM symbol) payload sizes in bytes.
  const Bytes bits_bytes = params.n_users * params.symbols_per_user();  // ~1 B per mapped symbol
  const Bytes symbol_bytes = params.n_users * params.symbols_per_user() * 4;  // I/Q 16-bit
  const Bytes chip_bytes = params.n_subcarriers * 4;
  const Bytes sample_bytes = params.samples_per_symbol() * 4;

  aaa::AlgorithmGraph g;
  g.add_sensor("data_in", "bit_source");
  g.add_compute("scramble", "scrambler");
  g.add_compute("conv_code", "conv_encoder", {{"k", 7}});
  g.add_compute("interleave", "interleaver", {{"depth", 512}, {"width", 8}});
  g.add_conditioned("modulation", {{"qpsk", "qpsk_mapper", {}}, {"qam16", "qam16_mapper", {}}});
  g.add_compute("spread", "walsh_spreader", {{"sf", sf}, {"users", users}});
  g.add_compute("ifft", "ifft", {{"n", n}, {"width", 16}});
  g.add_compute("cyclic_prefix", "cyclic_prefix", {{"n", n}, {"cp", cp}, {"width", 16}});
  g.add_compute("frame", "frame_builder", {{"n", n}, {"width", 16}});
  g.add_actuator("shb_out", "interface_in_out");

  g.add_dependency("data_in", "scramble", bits_bytes);
  g.add_dependency("scramble", "conv_code", bits_bytes);
  g.add_dependency("conv_code", "interleave", 2 * bits_bytes);
  g.add_dependency("interleave", "modulation", 2 * bits_bytes);
  g.add_dependency("modulation", "spread", symbol_bytes);
  g.add_dependency("spread", "ifft", chip_bytes);
  g.add_dependency("ifft", "cyclic_prefix", chip_bytes);
  g.add_dependency("cyclic_prefix", "frame", sample_bytes);
  g.add_dependency("frame", "shb_out", sample_bytes);
  g.validate();
  return g;
}

synth::DesignBundle run_flow_from_constraints(const aaa::ConstraintSet& constraints,
                                              const std::vector<synth::ModuleSpec>& statics) {
  lint::validate_constraints(constraints);  // an invalid set throws here, listing every error
  flow::PipelineOptions options;
  options.constraints_text = aaa::write_constraints(constraints);
  options.statics = statics;
  options.lint_gate = false;  // validate_constraints above is the gate
  return *flow::Pipeline(std::move(options)).bundle();
}

std::vector<synth::ModuleSpec> case_study_statics() {
  const McCdmaParams params{};
  const auto n = static_cast<int>(params.n_subcarriers);
  const auto cp = static_cast<int>(params.cyclic_prefix);
  return {
      {"interface_in_out", "interface_in_out", {}},
      {"scrambler", "scrambler", {}},
      {"conv_encoder", "conv_encoder", {{"k", 7}}},
      {"interleaver", "interleaver", {{"depth", 512}, {"width", 8}}},
      {"walsh_spreader",
       "walsh_spreader",
       {{"sf", static_cast<int>(params.spreading_factor)},
        {"users", static_cast<int>(params.n_users)}}},
      {"ifft", "ifft", {{"n", n}, {"width", 16}}},
      {"cyclic_prefix", "cyclic_prefix", {{"n", n}, {"cp", cp}, {"width", 16}}},
      {"frame_builder", "frame_builder", {{"n", n}, {"width", 16}}},
      {"config_manager", "config_manager", {}},
      {"protocol_builder", "protocol_builder", {}},
  };
}

CaseStudy build_case_study() {
  const McCdmaParams params{};
  aaa::ConstraintSet constraints = aaa::parse_constraints(case_study_constraints_text());
  // run_flow_from_constraints validates the set: the rules run once.
  synth::DesignBundle bundle = run_flow_from_constraints(constraints, case_study_statics());
  return CaseStudy{std::move(constraints), make_transmitter_algorithm(params),
                   aaa::make_sundance_architecture(), aaa::mccdma_durations(), std::move(bundle),
                   params};
}

const CaseStudy& shared_case_study() {
  static const CaseStudy cs = build_case_study();
  return cs;
}

rtr::BitstreamStore make_case_study_store() {
  return rtr::BitstreamStore(kCaseStudyStoreBandwidth, kCaseStudyStoreLatency);
}

aaa::ReconfigCost case_study_reconfig_cost(const synth::DesignBundle& bundle) {
  // Cold-load latency: the pipeline memory -> builder -> ICAP is
  // bottlenecked by the external memory stream.
  const fabric::PortTiming icap = fabric::ConfigPort::default_timing(fabric::PortKind::Icap);
  return [&bundle, icap](const std::string& region, const std::string& module) -> TimeNs {
    const auto& artifact = bundle.variant(region, module);
    const Bytes bytes = artifact.bitstream.size();
    const TimeNs fetch =
        kCaseStudyStoreLatency + transfer_time_ns(bytes, kCaseStudyStoreBandwidth);
    const double port_bps = icap.clock_hz * icap.width_bits / 8.0;
    const TimeNs port = icap.setup_overhead + transfer_time_ns(bytes, port_bps);
    return std::max(fetch, port) + 500;  // + manager overhead
  };
}

}  // namespace pdr::mccdma
