// The reconfigurable MC-CDMA transmitter system: signal processing,
// adaptive modulation, runtime reconfiguration manager and timing, run as
// one simulation (paper Figure 4 + the abstract's prefetching claim).
//
// Per OFDM symbol the transmitter emits real samples under the active
// modulation. Every `decision_interval` symbols the DSP measures SNR and
// the adaptive controller decides the modulation of subsequent symbols;
// a switch demands a reconfiguration of region D1 (the transmit pipeline
// locks up via In_Reconf for the exposed latency), while a guard-band
// drift only *announces* the likely module, letting the manager prefetch.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "mccdma/adaptive.hpp"
#include "mccdma/case_study.hpp"
#include "mccdma/channel.hpp"
#include "mccdma/estimator.hpp"
#include "mccdma/receiver.hpp"
#include "mccdma/transmitter.hpp"
#include "obs/sinks.hpp"
#include "rtr/manager.hpp"
#include "sim/timeline.hpp"

namespace pdr::mccdma {

struct SystemConfig {
  AdaptiveController::Config adaptive;
  SnrTrace::Config snr;
  rtr::ManagerConfig manager;
  /// Prefetch strategy: None disables staging entirely; Schedule stages on
  /// the controller's guard-band announcements; History lets the Markov
  /// predictor stage the likely next module right after every switch.
  aaa::PrefetchChoice prefetch = aaa::PrefetchChoice::Schedule;
  std::size_t decision_interval = 16;  ///< symbols between SNR measurements
  /// Periodic configuration-memory scrubbing (0 = off). Scrubs run off
  /// the critical path but occupy the configuration port, delaying any
  /// reconfiguration that lands while one is in progress.
  TimeNs scrub_period = 0;
  std::uint64_t seed = 42;
  /// Measure BER through the channel on every n-th symbol (0 = never).
  std::size_t ber_sample_every = 8;
  /// Frequency-selective channel instead of flat AWGN.
  bool multipath = false;
  std::size_t channel_taps = 6;
  /// With multipath: transmit a known pilot symbol every `pilot_every`
  /// symbols and re-estimate the equalizer from it (0 = genie channel
  /// knowledge). Pilots consume air time but carry no payload.
  std::size_t pilot_every = 0;
  /// Observability handle (detached by default). The manager's
  /// port/staging spans and "rtr.*" metrics flow here; run() also replays
  /// the system timeline and records "system.*" counters.
  obs::Sinks sinks;
};

struct SystemReport {
  std::size_t symbols = 0;
  TimeNs elapsed = 0;           ///< air time + reconfiguration stalls
  TimeNs stall_total = 0;       ///< pipeline lock-up due to reconfigurations
  std::uint64_t payload_bits = 0;
  std::size_t pilots_sent = 0;  ///< pilot symbols (airtime without payload)
  int switches = 0;
  rtr::ManagerStats manager;
  BerReport ber_qpsk;
  BerReport ber_qam16;
  double mean_snr_db = 0;

  /// Net payload throughput including stalls.
  double throughput_bps() const {
    return elapsed <= 0 ? 0.0 : static_cast<double>(payload_bits) * 1e9 / static_cast<double>(elapsed);
  }
  /// Fraction of wall time lost to reconfiguration stalls.
  double stall_fraction() const {
    return elapsed <= 0 ? 0.0 : static_cast<double>(stall_total) / static_cast<double>(elapsed);
  }
};

class TransmitterSystem {
 public:
  /// `case_study` must outlive the system (the manager references its
  /// design bundle).
  TransmitterSystem(const CaseStudy& case_study, SystemConfig config);

  /// Runs `n_symbols` OFDM symbols of air time.
  SystemReport run(std::size_t n_symbols);

  const rtr::ReconfigManager& manager() const { return *manager_; }
  const sim::Timeline& timeline() const { return timeline_; }

 private:
  const CaseStudy& cs_;
  SystemConfig config_;
  rtr::BitstreamStore store_;
  std::unique_ptr<rtr::PrefetchPolicy> policy_;
  std::unique_ptr<rtr::ReconfigManager> manager_;
  Transmitter tx_;
  Receiver rx_;
  AwgnChannel channel_;
  std::unique_ptr<MultipathChannel> fading_;  ///< only with config.multipath
  ChannelEstimator estimator_;
  SnrTrace snr_;
  AdaptiveController controller_;
  sim::Timeline timeline_;
};

}  // namespace pdr::mccdma
