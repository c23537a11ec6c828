// Ablation C: configuration-memory scrubbing.
//
// Runtime-reconfigurable systems in radio environments must repair
// single-event upsets in configuration memory. The manager's scrub()
// rewrites the resident module through the same fetch/build/load pipeline
// as a reconfiguration, so scrubbing competes with adaptive-modulation
// reconfigurations for the ICAP. This ablation measures:
//   - mean time to repair vs. scrub period, under a Poisson SEU process,
//   - the port-time tax scrubbing levies on the transmitter,
//   - readback-verification cost.
//
// The sweep runs on the fault-injection framework (src/fault): each row
// is one seeded campaign — same spec + seed = bit-identical results —
// run as a ScenarioRunner scenario into an index-owned slot, so the
// table is identical for any --jobs value.

#include <cstdio>

#include "fault/campaign.hpp"
#include "fault/fault_spec.hpp"
#include "flow/scenario.hpp"
#include "mccdma/case_study.hpp"
#include "rtr/manager.hpp"
#include "util/arg_parser.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace pdr;
using namespace pdr::literals;

namespace {

/// One scrub-period campaign: Poisson SEUs on D1, no demand traffic, no
/// port/fetch faults — isolates the scrubbing trade-off.
fault::CampaignReport run_scrub_campaign(TimeNs period, double seu_rate_hz, TimeNs horizon,
                                         std::uint64_t seed, obs::Sinks sinks) {
  fault::FaultSpec spec;
  spec.seed = seed;
  spec.horizon = horizon;
  spec.seus.push_back(fault::SeuProcess{"D1", seu_rate_hz});

  fault::CampaignConfig config;
  config.manager = rtr::sundance_manager_config();
  config.recovery = false;   // pure scrub measurement: no retry/fallback/drain
  config.scrub_period = period;
  config.demand_period = 0;  // no adaptive-modulation traffic

  rtr::BitstreamStore store = mccdma::make_case_study_store();
  return fault::run_campaign(mccdma::shared_case_study().bundle, store, spec, config, sinks);
}

void print_scrub_table(const util::ArgParser& args, int jobs) {
  std::puts("=== scrub period vs. SEU exposure (Poisson SEUs at 50/s, 2 s run) ===");
  std::puts("(exaggerated upset rate so one run shows the trade-off)\n");
  const TimeNs horizon = 2_s;
  const TimeNs periods[] = {TimeNs{0}, 500_ms, 200_ms, 100_ms, 50_ms, 20_ms};

  std::vector<fault::CampaignReport> slots(std::size(periods));
  std::vector<flow::Scenario> scenarios;
  for (std::size_t i = 0; i < std::size(periods); ++i) {
    scenarios.push_back({strprintf("scrub=%.0fms", to_ms(periods[i])),
                         [&periods, &slots, i, horizon](obs::Sinks sinks) {
                           slots[i] = run_scrub_campaign(periods[i], 50.0, horizon, 42, sinks);
                           return std::string();
                         }});
  }
  const flow::SweepResult sweep = flow::ScenarioRunner(jobs).run(scenarios);

  Table t({"scrub period (ms)", "scrubs", "SEUs", "frames repaired", "mean exposure (ms)",
           "port busy (%)"});
  for (std::size_t i = 0; i < std::size(periods); ++i) {
    const fault::CampaignReport& r = slots[i];
    t.row()
        .add(periods[i] == 0 ? std::string("off") : strprintf("%.0f", to_ms(periods[i])))
        .add(r.scrub.scrubs)
        .add(r.seus_injected)
        .add(r.scrub.frames_repaired)
        .add(r.mean_seu_exposure_ms, 1)
        .add(100.0 * r.port_busy_fraction, 2);
  }
  t.print();
  std::puts("\n(faster scrubbing shortens the corruption window but eats the very");
  std::puts(" port the adaptive modulation needs for its reconfigurations)\n");
  sweep.write_obs(args.string_or("--trace-out", ""), args.string_or("--metrics-out", ""));
}

void print_verify_cost() {
  std::puts("=== readback verification ===\n");
  const auto& cs = mccdma::shared_case_study();
  rtr::BitstreamStore store = mccdma::make_case_study_store();
  rtr::NonePrefetch policy;
  rtr::ReconfigManager manager(cs.bundle, rtr::sundance_manager_config(), store, policy);
  manager.set_resident("D1", "qam16");
  printf("region D1 clean frames check: %d corrupted (expect 0)\n",
         manager.verify_resident("D1"));
  const auto frames = cs.bundle.floorplan.region_frames("D1");
  manager.memory().flip_bit(frames[7], 3, 1);
  printf("after one injected SEU:      %d corrupted (expect 1)\n\n",
         manager.verify_resident("D1"));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::ArgParser args("ablate_scrubbing", argc - 1, argv + 1,
                               {{"--trace-out", true}, {"--metrics-out", true}, {"--jobs", true}},
                               0);
    const int jobs = static_cast<int>(args.uint_or("--jobs", 1));
    mccdma::shared_case_study();  // warm the bundle before the thread pool
    print_scrub_table(args, jobs);
    print_verify_cost();
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "ablate_scrubbing: %s\n", e.what());
    return 1;
  }
}
