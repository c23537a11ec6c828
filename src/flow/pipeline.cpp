#include "flow/pipeline.hpp"

#include <utility>

#include "aaa/codegen_c.hpp"
#include "aaa/codegen_m4.hpp"
#include "aaa/codegen_vhdl.hpp"
#include "fabric/device.hpp"
#include "lint/constraint_rules.hpp"
#include "lint/executive_rules.hpp"
#include "lint/schedule_rules.hpp"
#include "rtr/bitstream_store.hpp"
#include "rtr/manager.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "verify/verify.hpp"

namespace pdr::flow {

Fingerprint fingerprint_statics(const std::vector<synth::ModuleSpec>& statics) {
  Fingerprint fp;
  fp.mix(std::uint64_t{statics.size()});
  for (const auto& s : statics) {
    fp.mix(s.name).mix(s.kind).mix(std::uint64_t{s.params.size()});
    for (const auto& [key, value] : s.params)
      fp.mix(key).mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(value)));
  }
  return fp;
}

Pipeline::Pipeline(PipelineOptions options, std::shared_ptr<ArtifactStore> store)
    : options_(std::move(options)), store_(std::move(store)) {
  PDR_CHECK(store_ != nullptr, "Pipeline", "null artifact store");
  PDR_CHECK(!options_.reconfig_cost_fn || !options_.reconfig_cost_tag.empty(), "Pipeline",
            "a reconfig_cost_fn needs a reconfig_cost_tag to key the cache");
}

Fingerprint Pipeline::constraints_key() const { return fingerprint_of(options_.constraints_text); }

Fingerprint Pipeline::synth_key() const {
  Fingerprint fp = constraints_key();
  fp.mix(fingerprint_statics(options_.statics));
  return fp;
}

Fingerprint Pipeline::project_key() const { return fingerprint_of(options_.project_text); }

Fingerprint Pipeline::adequation_key() const {
  Fingerprint fp = project_key();
  fp.mix(static_cast<std::uint64_t>(options_.reconfig_cost))
      .mix(options_.reconfig_cost_tag)
      .mix(options_.prefetch)
      .mix(std::uint64_t{options_.preloaded.size()});
  for (const auto& [region, module] : options_.preloaded) fp.mix(region).mix(module);
  if (options_.apply_constraints) fp.mix(constraints_key());
  return fp;
}

template <typename T, typename Build>
std::shared_ptr<const T> Pipeline::cached(const char* stage, const Fingerprint& key,
                                          Build&& build) {
  bool ran = false;
  auto artifact = store_->get_or_build<T>(stage, key, [&] {
    ran = true;
    return build();
  });
  // Both counters register either way, so the exported names do not
  // depend on which calls hit.
  sinks_.count({"flow.cache.", stage, ".runs"}, ran ? 1.0 : 0.0);
  sinks_.count({"flow.cache.", stage, ".hits"}, ran ? 0.0 : 1.0);
  if (!ran) sinks_.instant("flow", {stage, " (cached)"}, "flow_cache", 0);
  return artifact;
}

std::shared_ptr<const aaa::ConstraintSet> Pipeline::constraints() {
  PDR_CHECK(!options_.constraints_text.empty(), "Pipeline::constraints",
            "no constraints_text input");
  return cached<aaa::ConstraintSet>(
      stage::kParseConstraints, constraints_key(),
      [&] { return aaa::parse_constraints(options_.constraints_text); });
}

std::shared_ptr<const lint::Report> Pipeline::lint_report() {
  auto parsed = constraints();
  return cached<lint::Report>(stage::kLint, constraints_key(),
                              [&] { return lint::check_constraints(*parsed); });
}

std::shared_ptr<const synth::DesignBundle> Pipeline::bundle() {
  auto parsed = constraints();
  if (options_.lint_gate) {
    auto report = lint_report();
    if (report->errors() > 0)
      throw Error("constraints failed the design-rule check:\n" + report->to_text());
  }
  return cached<synth::DesignBundle>(stage::kSynth, synth_key(), [&] {
    synth::ModularDesignFlow flow(fabric::device_by_name(parsed->device));
    flow.set_sinks(sinks_);
    for (const auto& s : options_.statics) flow.add_static(s.name, s.kind, s.params);
    for (const auto& region : parsed->regions) {
      std::vector<synth::ModuleSpec> variants;
      for (const auto* m : parsed->modules_of(region.name))
        variants.push_back(synth::ModuleSpec{m->name, m->kind, m->params});
      flow.add_region(region.name, std::move(variants), region.margin,
                      region.width);  // width -1 = auto
    }
    return flow.run();
  });
}

std::shared_ptr<const aaa::Project> Pipeline::project() {
  PDR_CHECK(!options_.project_text.empty(), "Pipeline::project", "no project_text input");
  return cached<aaa::Project>(stage::kParseProject, project_key(),
                              [&] { return aaa::parse_project(options_.project_text); });
}

std::shared_ptr<const AdequationArtifacts> Pipeline::adequation() {
  auto proj = project();
  return cached<AdequationArtifacts>(stage::kAdequation, adequation_key(), [&] {
    aaa::Adequation adequation(proj->algorithm, proj->architecture, proj->durations);
    if (options_.apply_constraints) adequation.apply_constraints(*constraints());
    aaa::AdequationOptions opts;
    opts.reconfig_cost = options_.reconfig_cost_fn;
    if (!opts.reconfig_cost) {
      const TimeNs cost = options_.reconfig_cost;
      opts.reconfig_cost = [cost](const std::string&, const std::string&) { return cost; };
    }
    opts.prefetch = options_.prefetch;
    opts.preloaded = options_.preloaded;
    const aaa::Schedule schedule = adequation.run(opts);
    const aaa::Executive executive =
        aaa::generate_executive(schedule, proj->algorithm, proj->architecture);
    lint::Report report = lint::check_schedule(schedule, proj->algorithm, proj->architecture);
    report.merge(lint::check_executive(executive));
    // Interval certification (PDR1xx): the schedule must be provably
    // race-free before anything downstream simulates or emits it.
    verify::VerifyOptions verify_options;
    verify_options.preloaded = options_.preloaded;
    std::shared_ptr<const aaa::ConstraintSet> cset;  // keeps the artifact alive
    if (options_.apply_constraints) {
      cset = constraints();
      verify_options.constraints = cset.get();
    }
    report.merge(
        verify::verify_schedule(schedule, proj->algorithm, proj->architecture, verify_options)
            .to_report());
    if (options_.lint_gate && report.errors() > 0)
      throw Error("schedule/executive failed the design-rule check:\n" + report.to_text());
    return AdequationArtifacts{schedule, executive, std::move(report)};
  });
}

std::shared_ptr<const CodegenArtifacts> Pipeline::codegen() {
  auto proj = project();
  auto adeq = adequation();
  const bool with_constraints = !options_.constraints_text.empty();
  // The generated manager/top wiring depends on the constraints (port,
  // manager/builder placement) and, for region operators, on the synth
  // floorplan's bus-macro provisioning — fold both into the key.
  Fingerprint key = adequation_key();
  if (with_constraints) key.mix(synth_key());
  return cached<CodegenArtifacts>(stage::kCodegen, key, [&] {
    const aaa::ConstraintSet fallback;
    const aaa::ConstraintSet& cset = with_constraints ? *constraints() : fallback;
    const synth::DesignBundle* bun = with_constraints ? bundle().get() : nullptr;
    CodegenArtifacts out;
    out.files["pdr_executive_pkg.vhd"] = aaa::generate_vhdl_package();
    for (aaa::NodeId n : proj->architecture.operators()) {
      const aaa::OperatorNode& op = proj->architecture.op(n);
      const aaa::MacroProgram& program = adeq->executive.program(op.name);
      if (op.kind == aaa::OperatorKind::Processor) {
        out.files[identifier(op.name) + "_executive.c"] =
            aaa::generate_c_executive(program, op, cset);
      } else {
        aaa::VhdlOptions vhdl;
        vhdl.embed_reconfig_manager =
            op.kind == aaa::OperatorKind::FpgaStatic && cset.manager == aaa::Placement::Fpga;
        if (op.kind == aaa::OperatorKind::FpgaRegion && bun != nullptr) {
          if (const fabric::Region* region = bun->floorplan.find_region(op.region))
            vhdl.bus_macro_count = static_cast<int>(region->bus_macros.size());
        }
        out.files[identifier(op.name) + ".vhd"] = aaa::generate_vhdl_entity(program, op, vhdl);
      }
    }
    out.files["design_top.vhd"] =
        aaa::generate_vhdl_top(adeq->executive, proj->architecture, cset);
    for (const auto& program : adeq->executive.programs)
      out.files[identifier(program.resource) + ".m4"] =
          aaa::generate_m4_macrocode(program, proj->architecture);
    out.files["application.m4"] =
        aaa::generate_m4_application(adeq->executive, proj->architecture, proj->name);
    return out;
  });
}

std::shared_ptr<const fault::CampaignReport> Pipeline::fault_campaign(
    const std::string& spec_text, const FaultCampaignOptions& opts) {
  auto bun = bundle();
  Fingerprint key = synth_key();
  key.mix(spec_text)
      .mix(opts.seed)
      .mix(opts.recovery)
      .mix(static_cast<std::uint64_t>(opts.scrub_period))
      .mix(std::uint64_t{static_cast<unsigned>(opts.scrub_mode)})
      .mix(static_cast<std::uint64_t>(opts.demand_period))
      .mix(opts.cache_capacity)
      .mix(opts.store_bandwidth)
      .mix(static_cast<std::uint64_t>(opts.store_latency));
  return cached<fault::CampaignReport>(stage::kFaultCampaign, key, [&] {
    const fault::FaultSpec spec = fault::parse_fault_spec(spec_text);
    fault::CampaignConfig config;
    config.seed = opts.seed;
    config.recovery = opts.recovery;
    config.scrub_period = opts.scrub_period;
    config.scrub_mode = opts.scrub_mode;
    config.demand_period = opts.demand_period;
    config.cache_capacity = opts.cache_capacity;
    rtr::BitstreamStore store(opts.store_bandwidth, opts.store_latency);
    return fault::run_campaign(*bun, store, spec, config, sinks_);
  });
}

}  // namespace pdr::flow
