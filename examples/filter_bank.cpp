// Adaptive filter bank: the library applied beyond the paper's case study.
//
// A sensor stream alternates between low-band and high-band activity. A
// dynamic region holds ONE of two FIR modules (low-pass / high-pass); a
// spectrum monitor in the static part detects which band is active and
// requests the matching filter — the same detect -> announce -> request
// pattern as the MC-CDMA transmitter's adaptive modulation, with real
// filtering arithmetic throughout.

#include <cmath>
#include <cstdio>

#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "flow/pipeline.hpp"
#include "mccdma/case_study.hpp"
#include "mccdma/flow_presets.hpp"
#include "rtr/manager.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace pdr;
using namespace pdr::literals;

namespace {

const char* kConstraints = R"(
device XC2V2000
port icap
manager fpga
builder fpga
prefetch history

region D1 { width 4 }

# Distributed-arithmetic FIR (LUT-based, no MULT18 columns needed — the
# right implementation for an edge region on Virtex-II).
dynamic lowpass  { region D1  kind custom  param luts 900  param ffs 500  load startup }
dynamic highpass { region D1  kind custom  param luts 900  param ffs 500 }

exclude lowpass highpass
relation lowpass then highpass
relation highpass then lowpass
)";

/// Energy fraction above half-Nyquist, from a 256-point FFT.
double high_band_fraction(std::span<const double> block) {
  std::vector<dsp::Cplx> x(block.size());
  for (std::size_t i = 0; i < block.size(); ++i) x[i] = {block[i], 0.0};
  dsp::fft(x);
  double low = 0, high = 0;
  for (std::size_t k = 1; k < x.size() / 2; ++k) {
    (k < x.size() / 8 ? low : high) += std::norm(x[k]);
  }
  return high / (low + high + 1e-30);
}

}  // namespace

int main() {
  const aaa::ConstraintSet constraints = aaa::parse_constraints(kConstraints);
  // Parse + lint + Modular Design through the flow pipeline preset;
  // bundle()'s lint gate refuses a set with design-rule errors before
  // `constraints` is used.
  flow::Pipeline pipeline =
      mccdma::constraints_pipeline(kConstraints, {{"spectrum_monitor", "ifft", {{"n", 256}}},
                                                  {"iface", "interface_in_out", {}},
                                                  {"cfg", "config_manager", {}},
                                                  {"pb", "protocol_builder", {}}});
  const std::shared_ptr<const synth::DesignBundle> bundle_ptr = pipeline.bundle();
  const synth::DesignBundle& bundle = *bundle_ptr;
  std::fputs(bundle.floorplan.render().c_str(), stdout);

  rtr::BitstreamStore store = mccdma::make_case_study_store();
  rtr::HistoryPredictor policy(constraints);
  rtr::ReconfigManager manager(bundle, rtr::sundance_manager_config(), store, policy);
  manager.set_resident("D1", "lowpass");

  // The two filter modules' arithmetic.
  const auto lp = dsp::lowpass_taps(63, 0.08);
  const auto hp = dsp::highpass_taps(63, 0.30);
  std::string active = "lowpass";

  // Input: blocks alternating between a low tone and a high tone + noise.
  Rng rng(99);
  const std::size_t block_len = 256;
  // 200 kHz sensor stream: a block lasts 1.28 ms, so the history
  // prefetcher's staging (~3 ms) completes well inside a 6-block phase.
  const double fs_block_t_ns = static_cast<double>(block_len) * 5000.0;
  TimeNs now = 0;
  TimeNs stall = 0;
  int switches = 0;
  double out_power_kept = 0, out_power_total = 0;

  Table t({"block", "band", "high-band frac", "filter", "action", "stall (ms)"});
  for (int blk = 0; blk < 24; ++blk) {
    const bool high_phase = (blk / 6) % 2 == 1;  // 6 blocks per phase
    const double f0 = high_phase ? 0.35 : 0.03;  // normalized tone
    std::vector<double> block(block_len);
    for (std::size_t i = 0; i < block_len; ++i)
      block[i] = std::sin(2.0 * 3.14159265358979 * f0 * static_cast<double>(i)) +
                 0.1 * rng.normal();

    const double frac = high_band_fraction(block);
    const std::string wanted = frac > 0.5 ? "highpass" : "lowpass";
    std::string action = "keep";
    if (wanted != active) {
      const auto outcome = manager.request("D1", wanted, now);
      stall += outcome.stall;
      now = outcome.ready_at;
      active = wanted;
      ++switches;
      action = rtr::request_kind_name(outcome.kind);
      manager.auto_prefetch("D1", now);  // history: stage the way back
    }

    // The resident module filters the block (the actual arithmetic the
    // region performs).
    const auto filtered = dsp::fir_filter(block, active == "lowpass" ? lp : hp);
    double in_e = 0, out_e = 0;
    for (std::size_t i = 0; i < block_len; ++i) {
      in_e += block[i] * block[i];
      out_e += filtered[i] * filtered[i];
    }
    out_power_kept += out_e;
    out_power_total += in_e;

    if (blk % 3 == 0 || action != "keep") {
      t.row()
          .add(blk)
          .add(high_phase ? "high" : "low")
          .add(frac, 2)
          .add(active)
          .add(action)
          .add(to_ms(stall), 2);
    }
    now += static_cast<TimeNs>(fs_block_t_ns);
  }
  t.print();

  printf("\n%d filter switches, %.2f ms total reconfiguration stall\n", switches, to_ms(stall));
  printf("matched filter kept %.0f%% of input power (it passes the active tone)\n",
         100.0 * out_power_kept / out_power_total);
  printf("history prefetch: %d staged hits of %d requests\n",
         manager.stats().prefetch_hits + manager.stats().prefetch_inflight,
         manager.stats().requests);
  return 0;
}
