// Paper Figure 4 + §6: the reconfigurable MC-CDMA transmitter.
//
// Regenerates the case-study numbers:
//   - dynamic region D1 = 8 % of the XC2V2000 (paper: "8% of the FPGA"),
//   - reconfiguration of Op_Dyn ~= 4 ms (paper: "about 4ms"),
//   - a 50k-symbol adaptive-modulation run with the SNR-driven QPSK <->
//     QAM-16 switching, prefetch on vs off.

#include <cstdio>

#include "mccdma/case_study.hpp"
#include "mccdma/system.hpp"
#include "util/arg_parser.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace pdr;

namespace {

const mccdma::CaseStudy& case_study() {
  static const mccdma::CaseStudy cs = mccdma::build_case_study();
  return cs;
}

void print_paper_claims() {
  const auto& cs = case_study();
  const auto cost = mccdma::case_study_reconfig_cost(cs.bundle);
  std::puts("=== paper claims vs. model ===\n");
  Table t({"claim", "paper", "measured"});
  t.row()
      .add("dynamic region share of FPGA")
      .add("8%")
      .add(strprintf("%.1f%%", 100.0 * cs.bundle.floorplan.region_fraction("D1")));
  t.row()
      .add("reconfiguration of Op_Dyn")
      .add("about 4 ms")
      .add(strprintf("%.2f ms", to_ms(cost("D1", "qam16"))));
  t.row()
      .add("full XC2V2000 bitstream")
      .add("851,044 B (datasheet)")
      .add(strprintf("%zu B", cs.bundle.initial_bitstream.size()));
  t.print();
  std::puts("");
}

void print_adaptive_run() {
  std::puts("=== 50,000-symbol adaptive run: prefetch on vs off ===\n");
  mccdma::SystemConfig config;
  config.seed = 2006;
  config.ber_sample_every = 16;

  mccdma::TransmitterSystem on(case_study(), config);
  const auto a = on.run(50'000);
  config.prefetch = aaa::PrefetchChoice::None;
  mccdma::TransmitterSystem off(case_study(), config);
  const auto b = off.run(50'000);

  Table t({"metric", "prefetch ON", "prefetch OFF"});
  t.row().add("modulation switches").add(a.switches).add(b.switches);
  t.row().add("elapsed (ms)").add(to_ms(a.elapsed), 2).add(to_ms(b.elapsed), 2);
  t.row().add("reconfig stall (ms)").add(to_ms(a.stall_total), 2).add(to_ms(b.stall_total), 2);
  t.row()
      .add("stall fraction (%)")
      .add(100 * a.stall_fraction(), 2)
      .add(100 * b.stall_fraction(), 2);
  t.row()
      .add("throughput (Mbit/s)")
      .add(a.throughput_bps() / 1e6, 3)
      .add(b.throughput_bps() / 1e6, 3);
  t.row().add("prefetch hits").add(a.manager.prefetch_hits).add(b.manager.prefetch_hits);
  t.row().add("misses").add(a.manager.misses).add(b.manager.misses);
  t.row()
      .add("BER qpsk")
      .add(strprintf("%.2e", a.ber_qpsk.ber()))
      .add(strprintf("%.2e", b.ber_qpsk.ber()));
  t.row()
      .add("BER qam16")
      .add(strprintf("%.2e", a.ber_qam16.ber()))
      .add(strprintf("%.2e", b.ber_qam16.ber()));
  t.print();

  const double hidden = b.stall_total > 0
                            ? 100.0 * static_cast<double>(b.stall_total - a.stall_total) /
                                  static_cast<double>(b.stall_total)
                            : 0.0;
  std::printf("\nprefetch hid %.0f%% of the reconfiguration stall\n\n", hidden);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::ArgParser("fig4_transmitter", argc - 1, argv + 1, {}, 0);  // takes no flags
    print_paper_claims();
    print_adaptive_run();
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "fig4_transmitter: %s\n", e.what());
    return 1;
  }
}
