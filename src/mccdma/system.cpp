#include "mccdma/system.hpp"

#include "util/error.hpp"
#include "util/log.hpp"

namespace pdr::mccdma {
namespace {

std::unique_ptr<rtr::PrefetchPolicy> policy_for(aaa::PrefetchChoice choice,
                                                const aaa::ConstraintSet& constraints) {
  aaa::ConstraintSet adjusted = constraints;
  adjusted.prefetch = choice;
  return rtr::make_prefetch_policy(adjusted);
}

}  // namespace

TransmitterSystem::TransmitterSystem(const CaseStudy& case_study, SystemConfig config)
    : cs_(case_study),
      config_(config),
      store_(make_case_study_store()),
      policy_(policy_for(config.prefetch, case_study.constraints)),
      manager_(std::make_unique<rtr::ReconfigManager>(case_study.bundle, config.manager, store_,
                                                      *policy_)),
      tx_(case_study.params),
      rx_(case_study.params),
      channel_(Rng(config.seed ^ 0xc0ffee)),
      estimator_(case_study.params),
      snr_(config.snr, Rng(config.seed)),
      controller_(config.adaptive) {
  manager_->set_sinks(config_.sinks);
  if (config_.multipath) {
    Rng taps_rng(config_.seed ^ 0xfade);
    fading_ = std::make_unique<MultipathChannel>(
        MultipathChannel::exponential_profile(config_.channel_taps, 2.0, taps_rng),
        Rng(config_.seed ^ 0xc0ffee));
    if (config_.pilot_every == 0) {
      // Genie channel knowledge.
      rx_.set_channel_response(fading_->frequency_response(cs_.params.n_subcarriers),
                               Receiver::Equalizer::Mmse, config_.snr.mean_db);
    }
  }
}

SystemReport TransmitterSystem::run(std::size_t n_symbols) {
  PDR_CHECK(n_symbols > 0, "TransmitterSystem::run", "need at least one symbol");
  const std::string region = "D1";
  const TimeNs symbol_t = cs_.params.symbol_duration();

  SystemReport report;
  TimeNs now = 0;
  double snr_sum = 0;

  // Initial configuration. A module declared `load startup` in the
  // constraints file ships inside the initial full-device bitstream —
  // free at run time; otherwise the first load stalls like any other.
  {
    const aaa::ModuleConstraint* mc = cs_.constraints.find_module(controller_.active());
    if (mc != nullptr && mc->load == aaa::LoadPolicy::Startup) {
      manager_->set_resident(region, controller_.active());
    } else {
      const auto outcome = manager_->request(region, controller_.active(), now);
      if (outcome.stall > 0)
        timeline_.add(region, "initial " + controller_.active(), sim::SpanKind::Reconfig, now,
                      outcome.ready_at);
      report.stall_total += outcome.stall;
      now = outcome.ready_at;
    }
    tx_.select_modulation(controller_.active());
    rx_.select_modulation(controller_.active());
  }

  TimeNs next_scrub = config_.scrub_period > 0 ? config_.scrub_period : 0;
  for (std::size_t k = 0; k < n_symbols; ++k) {
    if (config_.scrub_period > 0 && now >= next_scrub) {
      manager_->scrub(region, now);  // off critical path; occupies the port
      next_scrub += config_.scrub_period;
    }
    if (k % config_.decision_interval == 0) {
      const double snr_db = snr_.step();
      snr_sum += snr_db;
      const auto decision = controller_.update(snr_db);
      if (decision.announce.has_value() && config_.prefetch == aaa::PrefetchChoice::Schedule) {
        manager_->announce(region, *decision.announce, now);
      }
      if (decision.switched) {
        const auto outcome = manager_->request(region, decision.active, now);
        if (outcome.stall > 0) {
          // In_Reconf locks the pipeline: air time is lost.
          timeline_.add(region, "reconf " + decision.active, sim::SpanKind::Reconfig, now,
                        outcome.ready_at);
          report.stall_total += outcome.stall;
          now = outcome.ready_at;
        }
        tx_.select_modulation(decision.active);
        rx_.select_modulation(decision.active);
        ++report.switches;
        // History mode: stage the predicted next module right away.
        if (config_.prefetch == aaa::PrefetchChoice::History)
          manager_->auto_prefetch(region, now);
      }
    }

    // Pilot insertion: a known symbol the receiver re-estimates the
    // equalizer from (multipath mode only). Pilots use air time.
    if (fading_ && config_.pilot_every != 0 && k % config_.pilot_every == 0) {
      const auto received_pilot = fading_->apply(estimator_.pilot_samples(), snr_.current());
      const auto h = ChannelEstimator::smooth(estimator_.estimate(received_pilot), 1);
      rx_.set_channel_response(h, Receiver::Equalizer::Mmse, snr_.current());
      ++report.pilots_sent;
      now += symbol_t;
    }

    const TxSymbol sym = tx_.next_symbol();
    for (const auto& bits : sym.user_bits) report.payload_bits += bits.size();

    if (config_.ber_sample_every != 0 && k % config_.ber_sample_every == 0) {
      const auto noisy = fading_ ? fading_->apply(sym.samples, snr_.current())
                                 : channel_.apply(sym.samples, snr_.current());
      BerReport& ber = sym.modulation == "qpsk" ? report.ber_qpsk : report.ber_qam16;
      rx_.measure(noisy, sym.user_bits, ber);
    }

    now += symbol_t;
  }

  report.symbols = n_symbols;
  report.elapsed = now;
  report.manager = manager_->stats();
  const obs::Sinks& sinks = config_.sinks;
  sinks.trace([&](obs::Tracer& t) { timeline_.export_to(t, "system_"); });
  sinks.count("system.symbols", static_cast<double>(n_symbols));
  sinks.count("system.switches", report.switches);
  sinks.count("system.pilots_sent", static_cast<double>(report.pilots_sent));
  sinks.count("system.stall_ns", static_cast<double>(report.stall_total));
  sinks.count("system.payload_bits", static_cast<double>(report.payload_bits));
  sinks.gauge("system.throughput_bps", report.throughput_bps());
  sinks.gauge("system.stall_fraction", report.stall_fraction());
  report.mean_snr_db =
      snr_sum / static_cast<double>((n_symbols + config_.decision_interval - 1) /
                                    config_.decision_interval);
  PDR_INFO("system") << n_symbols << " symbols, " << report.switches << " switches, stall "
                     << to_ms(report.stall_total) << " ms";
  return report;
}

}  // namespace pdr::mccdma
