// The four pdrbench workloads. Each drives the public functions of the
// modules it measures, wraps every call in a span, and checks its outputs
// outside the timed region.
//
//  - design:    the back half of the flow on one large generated graph
//               (aaa, verify, lint, codegen); one schedule per pass.
//  - codesign:  the co-optimisation inner loop (plan, flow explorer):
//               many small schedules that differ only in a cost table.
//  - fleet:     the fleet service draining a contended request log (svc,
//               rtr, fabric) with a store outage and port aborts armed.
//  - campaigns: seeded fault campaigns (fault, sim, rtr, fabric) whose
//               loads carry corrupted, unvalidated buffers.

#include <algorithm>
#include <optional>

#include "aaa/adequation.hpp"
#include "aaa/codegen_m4.hpp"
#include "aaa/explorer.hpp"
#include "aaa/macrocode.hpp"
#include "aaa/project_io.hpp"
#include "bench/generators.hpp"
#include "fault/campaign.hpp"
#include "fault/fault_spec.hpp"
#include "flow/artifact_store.hpp"
#include "flow/explorer.hpp"
#include "harness.hpp"
#include "lint/schedule_rules.hpp"
#include "mccdma/case_study.hpp"
#include "plan/planner.hpp"
#include "rtr/manager.hpp"
#include "svc/request_log.hpp"
#include "svc/service.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "verify/verify.hpp"

namespace pdrbench {
namespace {

using namespace pdr;
using namespace pdr::literals;

// --- shared helpers ---------------------------------------------------------

/// The case-study bundle, built cold: the process-wide artifact store is
/// emptied first, so every set-up pays the Modular Design flow
/// (synth/netlist/fabric) as a first `pdrflow` run does.
mccdma::CaseStudy build_case_study_cold(Spans& spans) {
  flow::default_store()->clear();
  return spans.call("mccdma", "mccdma.case_study", [] { return mccdma::build_case_study(); });
}

/// Per-layer reconfiguration-manager counts, shared by fleet and campaigns.
void manager_counts(const rtr::ManagerStats& s, std::map<std::string, double>& out) {
  out["rtr.requests"] = s.requests;
  out["rtr.misses"] = s.misses;
  out["rtr.bytes_loaded"] = static_cast<double>(s.bytes_loaded);
  out["rtr.crc_rejects"] = s.crc_rejects;
  out["rtr.port_aborts"] = s.port_aborts;
  out["rtr.retries"] = s.retries;
  out["rtr.fallbacks"] = s.fallbacks;
  // Demand loads that went to the port and ended with the demanded
  // module resident (no fallback), over all such loads.
  const int loads = s.requests - s.already_loaded;
  out["rtr.load_success_ratio.base"] = loads;
  out["rtr.load_success_ratio"] = loads > 0 ? static_cast<double>(loads - s.fallbacks) / loads : 0.0;
  out["rtr.load_time_ms"] = to_ms(s.total_load_time);
  out["rtr.stall_ms"] = to_ms(s.total_stall);
}

void add_stats(rtr::ManagerStats& total, const rtr::ManagerStats& s) {
  total.requests += s.requests;
  total.already_loaded += s.already_loaded;
  total.misses += s.misses;
  total.bytes_loaded += s.bytes_loaded;
  total.crc_rejects += s.crc_rejects;
  total.port_aborts += s.port_aborts;
  total.retries += s.retries;
  total.fallbacks += s.fallbacks;
  total.total_load_time += s.total_load_time;
  total.total_stall += s.total_stall;
}

// --- design -----------------------------------------------------------------

// Large enough that the scheduler's per-op costs dominate a pass, small
// enough for several passes per run.
constexpr int kDesignOps = 120'000;

class DesignWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed, Spans& spans) override {
    bench::GeneratorConfig cfg;
    cfg.shape = bench::GraphShape::Layered;
    cfg.n_ops = kDesignOps;
    cfg.width = 20;
    cfg.seed = seed;
    graph_ = spans.call("bench", "bench.generate_graph", [&] { return bench::generate_graph(cfg); });
  }

  void iterate(Spans& spans) override {
    const aaa::AlgorithmGraph& g = graph_;
    schedule_ = spans.call("aaa", "aaa.adequation.run", [&] {
      const aaa::Adequation adequation(g, arch_, durations_);  // cold, as one CLI run pays
      return adequation.run();
    });
    certificate_ = spans.call("verify", "verify.verify_schedule",
                              [&] { return verify::verify_schedule(schedule_, g, arch_); });
    lint_ = spans.call("lint", "lint.check_schedule",
                       [&] { return lint::check_schedule(schedule_, g, arch_); });
    executive_ = spans.call("aaa", "aaa.generate_executive",
                            [&] { return aaa::generate_executive(schedule_, g, arch_); });
    m4_ = spans.call("aaa", "aaa.codegen_m4", [&] {
      std::vector<std::string> files;
      for (const auto& program : executive_.programs)
        files.push_back(aaa::generate_m4_macrocode(program, arch_));
      return files;
    });
    csv_ = spans.call("aaa", "aaa.schedule.to_csv", [&] { return schedule_.to_csv(); });
  }

  CheckResult check() const override {
    CheckResult result;
    result.digest = fnv1a(csv_);
    for (const auto& file : m4_) result.digest = fnv1a(file, result.digest);
    if (!certificate_.certified())
      result.error = "schedule not certified: " + certificate_.first_error();
    else if (lint_.errors() > 0)
      result.error = "schedule lint errors:\n" + lint_.to_text();
    else {
      try {
        aaa::validate_schedule(schedule_, graph_, arch_);
      } catch (const Error& e) {
        result.error = std::string("validate_schedule: ") + e.what();
      }
    }
    return result;
  }

  double work_per_iteration() const override { return kDesignOps; }
  double sim_ms() const override { return to_ms(schedule_.makespan); }
  double success_frac() const override {
    return certificate_.certified() && lint_.errors() == 0 ? 1.0 : 0.0;
  }

  void counts(std::map<std::string, double>& out) const override {
    std::size_t instrs = 0;
    for (const auto& program : executive_.programs) instrs += program.body.size();
    std::size_t m4_bytes = 0;
    for (const auto& file : m4_) m4_bytes += file.size();
    out["aaa.schedule.items"] = static_cast<double>(schedule_.size());
    out["aaa.macro.instrs"] = static_cast<double>(instrs);
    out["aaa.m4.bytes"] = static_cast<double>(m4_bytes);
    out["verify.violations"] = static_cast<double>(certificate_.violations.size());
    out["design.makespan_ms"] = sim_ms();
  }

  std::vector<std::string> summary(double iteration_s) const override {
    return {strprintf("design.ops_per_s %.1f 1/s (%d ops per pass)", kDesignOps / iteration_s,
                      kDesignOps),
            strprintf("design.makespan_ms %.6f ms (simulated)", sim_ms())};
  }

 private:
  const aaa::ArchitectureGraph arch_ = bench::bench_architecture(4, 2);
  const aaa::DurationTable durations_ = bench::bench_durations();
  aaa::AlgorithmGraph graph_;
  aaa::Schedule schedule_;
  verify::Certificate certificate_;
  lint::Report lint_;
  aaa::Executive executive_;
  std::vector<std::string> m4_;
  std::string csv_;
};

// --- codesign ---------------------------------------------------------------

constexpr int kCodesignOps = 2'000;

class CodesignWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed, Spans& spans) override {
    bench::GeneratorConfig cfg;
    cfg.shape = bench::GraphShape::Layered;
    cfg.n_ops = kCodesignOps;
    cfg.width = 10;
    cfg.seed = seed;
    project_.name = "codesign";
    project_.algorithm =
        spans.call("bench", "bench.generate_graph", [&] { return bench::generate_graph(cfg); });
    project_.architecture = bench::bench_architecture(2, 2);
    // The front stays at one point with these durations, and with every
    // table tried (flat and asymmetric variant speeds, per-region
    // overrides): flow.explorer.pareto_points records that gap.
    project_.durations = bench::bench_durations();

    // The selection axis: the first two conditioned vertices. The whole
    // set would make the cross product explode.
    selected_.clear();
    for (const graph::NodeId n : project_.algorithm.digraph().node_ids()) {
      if (project_.algorithm.op(n).conditioned()) selected_.push_back(project_.algorithm.op(n).name);
      if (selected_.size() == 2) break;
    }
    PDR_CHECK(selected_.size() == 2, "codesign", "generated graph lacks conditioned vertices");
  }

  void iterate(Spans& spans) override {
    plan_ = spans.call("plan", "plan.plan_floorplan",
                       [&] { return plan::plan_floorplan(project_, plan_options_); });
    axis_ = spans.call("plan", "plan.floorplan_axis",
                       [&] { return plan::floorplan_axis(project_, plan_options_); });
    aaa::ExplorationSpace space;
    space.strategies = {aaa::MappingStrategy::SynDExList, aaa::MappingStrategy::RoundRobin,
                        aaa::MappingStrategy::FirstFeasible};
    space.prefetch = {true, false};
    // Preloads on D1 only: 72 points keep an iteration near a quarter
    // second, so a run times enough of them to find the host's fast spells.
    space.preloads = {{"D1", {"", "filt_a", "filt_b"}}};
    space.selections = {{selected_[0], {"filt_a", "filt_b"}}, {selected_[1], {"filt_a", "filt_b"}}};
    space.floorplans = axis_;
    report_ = spans.call("flow", "flow.explorer.run", [&] {
      flow::ExplorerOptions options;
      options.jobs = 1;  // points per second per core is the tracked figure
      const flow::DesignSpaceExplorer explorer(project_, space, options);
      return explorer.run();
    });
  }

  CheckResult check() const override {
    CheckResult result;
    result.digest = fnv1a(report_.to_string(), fnv1a(plan_.to_string()));
    if (!plan_.certified)
      result.error = "winning plan not certified: " + plan_.certificate_error;
    else if (plan_.lint.errors() > 0)
      result.error = "winning plan has lint errors:\n" + plan_.lint.to_text();
    else if (report_.failed_points() > 0)
      result.error = strprintf("%zu explorer points failed", report_.failed_points());
    else if (report_.pareto.empty())
      result.error = "empty Pareto front";
    return result;
  }

  double work_per_iteration() const override {
    return plan_.evaluated + static_cast<double>(report_.points.size());
  }
  double sim_ms() const override {
    return report_.pareto.empty() ? 0.0 : to_ms(report_.outcomes[report_.pareto.front()].makespan);
  }
  double success_frac() const override {
    const double points = static_cast<double>(report_.points.size());
    return points > 0 ? (points - report_.failed_points() - report_.pruned_points()) / points : 0.0;
  }

  void counts(std::map<std::string, double>& out) const override {
    out["plan.evaluated"] = plan_.evaluated;
    out["plan.rounds"] = plan_.rounds;
    out["plan.axis_choices"] = static_cast<double>(axis_.size());
    out["flow.explorer.points"] = static_cast<double>(report_.points.size());
    out["flow.explorer.pruned"] = static_cast<double>(report_.pruned_points());
    out["flow.explorer.failed"] = static_cast<double>(report_.failed_points());
    out["flow.explorer.pareto_points"] = static_cast<double>(report_.pareto.size());
    out["codesign.best_makespan_ms"] = sim_ms();
  }

  std::vector<std::string> summary(double iteration_s) const override {
    return {strprintf("codesign.schedules_per_s %.1f 1/s (%d planner evaluations + %zu explorer "
                      "points per pass)",
                      work_per_iteration() / iteration_s, plan_.evaluated, report_.points.size()),
            strprintf("codesign.best_makespan_ms %.6f ms (simulated; Pareto front of %zu)", sim_ms(),
                      report_.pareto.size())};
  }

 private:
  aaa::Project project_;
  std::vector<std::string> selected_;
  const plan::PlanOptions plan_options_;
  plan::PlanResult plan_;
  std::vector<aaa::FloorplanChoice> axis_;
  flow::ExplorationReport report_;
};

// --- fleet ------------------------------------------------------------------

constexpr int kFleetDevices = 300;
constexpr int kFleetRequests = 10'000;
constexpr TimeNs kFleetHorizon = 200_ms;
constexpr TimeNs kFleetDeadline = 20_ms;

class FleetWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed, Spans& spans) override {
    case_.emplace(build_case_study_cold(spans));
    const synth::DesignBundle& bundle = case_->bundle;
    std::vector<std::pair<std::string, std::vector<std::string>>> catalog;
    Bytes largest = 0;
    for (const auto& [region, variants] : bundle.dynamic_variants) {
      catalog.emplace_back(region, bundle.variant_names(region));
      for (const auto& v : variants) largest = std::max<Bytes>(largest, v.bitstream.size());
    }

    svc::TrafficOptions traffic;
    traffic.devices = kFleetDevices;
    traffic.requests = kFleetRequests;
    traffic.seed = seed;
    traffic.horizon = kFleetHorizon;
    traffic.maintenance_frac = 0.25;
    traffic.deadline = kFleetDeadline;
    log_ = spans.call("svc", "svc.generate_request_log",
                      [&] { return svc::generate_request_log(traffic, catalog); });

    // A bounded outage of qam16's stored image (damage, then repair) and
    // rare port aborts.
    static_assert(kFleetHorizon == 200_ms, "the outage window below assumes a 200 ms log");
    spec_ = fault::parse_fault_spec(strprintf(
        "seed %llu\nhorizon_ms 200\nport abort_prob 0.01\n"
        "store damage qam16 at_ms 60\nstore repair qam16 at_ms 100\n",
        static_cast<unsigned long long>(seed)));

    // `pdrflow serve` settings, with queues short enough to push back and
    // a fleet cache that holds one module, so the two case-study modules
    // evict each other.
    config_ = svc::ServiceConfig{};
    config_.jobs = 4;
    config_.queue_capacity = 4;
    config_.fleet_cache_capacity = largest;
    config_.manager = rtr::sundance_manager_config();
    config_.manager.recovery.enabled = true;
    config_.store_bandwidth_bytes_per_s = mccdma::kCaseStudyStoreBandwidth;
    config_.store_latency = mccdma::kCaseStudyStoreLatency;
  }

  void iterate(Spans& spans) override {
    report_ = spans.call("svc", "svc.run", [&] {
      svc::FleetService service(case_->bundle, config_);
      service.arm_faults(spec_);
      return service.run(log_);
    });
  }

  CheckResult check() const override {
    CheckResult result;
    result.digest = fnv1a(report_.to_string());
    const std::size_t n = log_.requests.size();
    const int sum = report_.completed + report_.degraded + report_.failed + report_.timed_out +
                    report_.rejected_queue_full + report_.rejected_breaker_open + report_.shed;
    if (report_.records.size() != n || sum != static_cast<int>(n))
      result.error = strprintf("dispositions sum to %d over %zu records, log has %zu requests", sum,
                               report_.records.size(), n);
    return result;
  }

  double work_per_iteration() const override { return static_cast<double>(log_.requests.size()); }

  /// Simulated arrival -> ready of every request a device served.
  std::vector<double> stalls_ms() const {
    std::vector<double> stalls;
    for (const auto& rec : report_.records)
      if (rec.device >= 0) stalls.push_back(to_ms(rec.stall));
    return stalls;
  }
  double sim_ms() const override {
    const auto stalls = stalls_ms();
    return stalls.empty() ? 0.0 : quantile(stalls, 0.99);
  }
  double success_frac() const override {
    return static_cast<double>(report_.completed) / static_cast<double>(log_.requests.size());
  }

  void counts(std::map<std::string, double>& out) const override {
    out["svc.disp.completed"] = report_.completed;
    out["svc.disp.degraded"] = report_.degraded;
    out["svc.disp.failed"] = report_.failed;
    out["svc.disp.timed_out"] = report_.timed_out;
    out["svc.disp.rejected_queue_full"] = report_.rejected_queue_full;
    out["svc.disp.rejected_breaker_open"] = report_.rejected_breaker_open;
    out["svc.disp.shed"] = report_.shed;
    out["svc.admitted"] = report_.admitted;
    out["svc.rerouted"] = report_.rerouted;
    out["svc.ticks"] = report_.ticks;
    const auto& c = report_.cache;
    out["svc.cache.fetches"] = static_cast<double>(c.fetches);
    out["svc.cache.served"] = static_cast<double>(c.served);
    out["svc.cache.coalesced"] = static_cast<double>(c.coalesced);
    out["svc.cache.evictions"] = static_cast<double>(c.evictions);
    const double lookups = static_cast<double>(c.served + c.fetches);
    out["svc.cache.hit_ratio.base"] = lookups;
    out["svc.cache.hit_ratio"] = lookups > 0 ? static_cast<double>(c.served) / lookups : 0.0;
    manager_counts(report_.fleet_stats(), out);
    const auto stalls = stalls_ms();
    out["fleet.stall.samples"] = static_cast<double>(stalls.size());
    out["fleet.stall_ms.p50"] = stalls.empty() ? 0.0 : quantile(stalls, 0.5);
    out["fleet.stall_ms.p99"] = sim_ms();
    out["fleet.on_time_frac"] = success_frac();
  }

  std::vector<std::string> summary(double iteration_s) const override {
    const auto stalls = stalls_ms();
    return {strprintf("fleet.requests_per_s %.1f 1/s (%zu requests, %d devices per log)",
                      work_per_iteration() / iteration_s, log_.requests.size(), log_.devices),
            strprintf("fleet.stall_ms.p50 %.6f ms, fleet.stall_ms.p99 %.6f ms (simulated, %zu "
                      "served requests)",
                      stalls.empty() ? 0.0 : quantile(stalls, 0.5), sim_ms(), stalls.size()),
            strprintf("fleet.on_time_frac %.6f (%d completed by deadline of %zu attempted)",
                      success_frac(), report_.completed, log_.requests.size())};
  }

 private:
  std::optional<mccdma::CaseStudy> case_;
  svc::RequestLog log_;
  fault::FaultSpec spec_;
  svc::ServiceConfig config_;
  svc::ServiceReport report_;
};

// --- campaigns --------------------------------------------------------------

constexpr int kCampaignBatch = 48;

class CampaignsWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed, Spans& spans) override {
    case_.emplace(build_case_study_cold(spans));
    spec_ = fault::parse_fault_spec(
        "horizon_ms 100\n"
        "seu D1 rate 200\n"
        "port abort_prob 0.05\n"
        "fetch corrupt qam16 prob 0.2\n");
    seed_ = seed;
  }

  void iterate(Spans& spans) override {
    reports_.clear();
    for (int k = 0; k < kCampaignBatch; ++k) {
      reports_.push_back(spans.call("fault", "fault.run_campaign", [&] {
        rtr::BitstreamStore store = mccdma::make_case_study_store();
        return fault::run_campaign(case_->bundle, store, spec_, config(k));
      }));
    }
  }

  CheckResult check() const override {
    CheckResult result;
    result.digest = fnv1a("");
    for (int k = 0; k < kCampaignBatch; ++k) {
      const fault::CampaignReport& r = reports_[static_cast<std::size_t>(k)];
      result.digest = fnv1a(r.to_string(), result.digest);
      if (!result.error.empty()) continue;
      const std::string why = invalid_reason(r, config(k));
      if (!why.empty())
        result.error = strprintf("campaign seed %llu: %s",
                                 static_cast<unsigned long long>(config(k).seed), why.c_str());
    }
    return result;
  }

  int units_per_iteration() const override { return kCampaignBatch; }
  double work_per_iteration() const override { return kCampaignBatch; }
  double sim_ms() const override {
    double sum = 0;
    for (const auto& r : reports_) sum += r.mean_seu_exposure_ms;
    return sum / static_cast<double>(reports_.size());
  }
  double success_frac() const override {
    int healthy = 0;
    for (const auto& r : reports_) healthy += r.all_healthy() ? 1 : 0;
    return static_cast<double>(healthy) / static_cast<double>(reports_.size());
  }

  void counts(std::map<std::string, double>& out) const override {
    double seus = 0, corruptions = 0, aborts = 0, scrubs = 0, repaired = 0, busy = 0;
    rtr::ManagerStats total;
    for (const auto& r : reports_) {
      seus += r.seus_injected;
      corruptions += r.fetch_corruptions;
      aborts += r.port_aborts_armed;
      scrubs += r.scrub.scrubs;
      repaired += r.scrub.frames_repaired;
      busy += r.port_busy_fraction;
      add_stats(total, r.manager);
    }
    out["fault.seus_injected"] = seus;
    out["fault.fetch_corruptions"] = corruptions;
    out["fault.port_aborts_armed"] = aborts;
    out["fault.scrub.scrubs"] = scrubs;
    out["fault.scrub.frames_repaired"] = repaired;
    out["sim.port_busy_frac"] = busy / static_cast<double>(reports_.size());
    out["campaigns.seu_exposure_ms"] = sim_ms();
    manager_counts(total, out);
  }

  std::vector<std::string> summary(double iteration_s) const override {
    return {strprintf("campaigns.per_s %.2f 1/s (%d campaigns per batch)",
                      kCampaignBatch / iteration_s, kCampaignBatch),
            strprintf("campaigns.seu_exposure_ms %.6f ms (simulated mean over the batch)", sim_ms())};
  }

 private:
  /// Campaign k of the batch: its own seed, and scrub mode alternating
  /// between blind rewrites and readback-triggered repair, so frame writes
  /// and frame readback both carry load.
  fault::CampaignConfig config(int k) const {
    fault::CampaignConfig c;
    c.seed = seed_ * 1000 + static_cast<std::uint64_t>(k) + 1;
    c.scrub_mode = k % 2 == 0 ? fault::ScrubScheduler::Mode::Blind
                              : fault::ScrubScheduler::Mode::ReadbackTriggered;
    return c;
  }

  /// "" when the report is what a recovering campaign must produce.
  std::string invalid_reason(const fault::CampaignReport& r, const fault::CampaignConfig& c) const {
    if (r.seed != c.seed) return "report carries another seed";
    if (r.horizon != spec_.horizon) return "report horizon differs from the spec";
    if (r.demands == 0) return "no demand traffic ran";
    if (r.unrecovered_errors != 0) return strprintf("%d unrecovered errors", r.unrecovered_errors);
    for (const auto& region : r.regions) {
      if (region.resident.empty()) return "region " + region.region + " ends blank";
      if (region.corrupted_frames != 0)
        return strprintf("region %s ends with %d corrupted frames", region.region.c_str(),
                         region.corrupted_frames);
    }
    return "";
  }

  std::optional<mccdma::CaseStudy> case_;
  fault::FaultSpec spec_;
  std::uint64_t seed_ = 0;
  std::vector<fault::CampaignReport> reports_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "design") return std::make_unique<DesignWorkload>();
  if (name == "codesign") return std::make_unique<CodesignWorkload>();
  if (name == "fleet") return std::make_unique<FleetWorkload>();
  if (name == "campaigns") return std::make_unique<CampaignsWorkload>();
  throw Error("pdrbench: unknown workload '" + name +
              "' (expected design, codesign, fleet or campaigns)");
}

}  // namespace pdrbench
