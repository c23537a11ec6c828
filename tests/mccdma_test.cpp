#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dsp/convcode.hpp"
#include "mccdma/adaptive.hpp"
#include "mccdma/channel.hpp"
#include "mccdma/estimator.hpp"
#include "mccdma/modulation.hpp"
#include "mccdma/ofdm.hpp"
#include "mccdma/receiver.hpp"
#include "mccdma/spreading.hpp"
#include "mccdma/transmitter.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pdr::mccdma {
namespace {

// --- params ---------------------------------------------------------------------

TEST(Params, DefaultsValidate) {
  McCdmaParams p;
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(p.groups(), 4u);
  EXPECT_EQ(p.samples_per_symbol(), 80u);
  EXPECT_EQ(p.symbol_duration(), 4000);  // 80 samples at 20 MHz = 4 us
}

TEST(Params, InvalidCombinationsRejected) {
  McCdmaParams p;
  p.n_subcarriers = 48;
  EXPECT_THROW(p.validate(), pdr::Error);
  p = {};
  p.spreading_factor = 128;
  EXPECT_THROW(p.validate(), pdr::Error);
  p = {};
  p.n_users = 17;
  EXPECT_THROW(p.validate(), pdr::Error);
  p = {};
  p.cyclic_prefix = 64;
  EXPECT_THROW(p.validate(), pdr::Error);
}

// --- modulation --------------------------------------------------------------------

class ModulatorTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ModulatorTest, MapDemapRoundTripNoiseless) {
  const auto mod = make_modulator(GetParam());
  Rng rng(7);
  std::vector<std::uint8_t> bits(
      static_cast<std::size_t>(mod->bits_per_symbol()) * 100);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  const auto symbols = mod->map(bits);
  EXPECT_EQ(symbols.size(), 100u);
  EXPECT_EQ(mod->demap(symbols), bits);
}

TEST_P(ModulatorTest, UnitAverageEnergy) {
  const auto mod = make_modulator(GetParam());
  const int k = mod->bits_per_symbol();
  // Exhaustive over all symbols of the constellation.
  double energy = 0;
  const int points = 1 << k;
  for (int v = 0; v < points; ++v) {
    std::vector<std::uint8_t> bits(static_cast<std::size_t>(k));
    for (int b = 0; b < k; ++b) bits[static_cast<std::size_t>(b)] = (v >> (k - 1 - b)) & 1;
    energy += std::norm(mod->map(bits)[0]);
  }
  EXPECT_NEAR(energy / points, 1.0, 1e-9);
}

TEST_P(ModulatorTest, DistinctBitsDistinctPoints) {
  const auto mod = make_modulator(GetParam());
  const int k = mod->bits_per_symbol();
  const int points = 1 << k;
  std::vector<Cplx> seen;
  for (int v = 0; v < points; ++v) {
    std::vector<std::uint8_t> bits(static_cast<std::size_t>(k));
    for (int b = 0; b < k; ++b) bits[static_cast<std::size_t>(b)] = (v >> (k - 1 - b)) & 1;
    const Cplx pt = mod->map(bits)[0];
    for (const Cplx& other : seen) EXPECT_GT(std::abs(pt - other), 1e-6);
    seen.push_back(pt);
  }
}

INSTANTIATE_TEST_SUITE_P(Mods, ModulatorTest, ::testing::Values("bpsk", "qpsk", "qam16", "qam64"));

TEST(Modulation, BitsPerSymbol) {
  EXPECT_EQ(make_bpsk()->bits_per_symbol(), 1);
  EXPECT_EQ(make_qpsk()->bits_per_symbol(), 2);
  EXPECT_EQ(make_qam16()->bits_per_symbol(), 4);
  EXPECT_EQ(make_qam64()->bits_per_symbol(), 6);
}

TEST(Modulation, NeighbouringAxisLevelsDifferInOneBit) {
  // Gray mapping: along each axis, adjacent amplitudes carry bit patterns
  // one bit apart, so the likeliest symbol error costs one bit.
  for (const char* name : {"qpsk", "qam16", "qam64"}) {
    const auto mod = make_modulator(name);
    const int bits_axis = mod->bits_per_symbol() / 2;
    std::vector<std::pair<double, int>> levels;  // (in-phase amplitude, pattern)
    for (int pattern = 0; pattern < (1 << bits_axis); ++pattern) {
      std::vector<std::uint8_t> bits(static_cast<std::size_t>(2 * bits_axis), 0);
      for (int b = 0; b < bits_axis; ++b)  // MSB first on the in-phase axis
        bits[static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>((pattern >> (bits_axis - 1 - b)) & 1);
      levels.emplace_back(mod->map(bits).at(0).real(), pattern);
    }
    std::sort(levels.begin(), levels.end());
    for (std::size_t i = 0; i + 1 < levels.size(); ++i) {
      EXPECT_LT(levels[i].first, levels[i + 1].first) << name;
      EXPECT_EQ(__builtin_popcount(static_cast<unsigned>(levels[i].second ^ levels[i + 1].second)),
                1)
          << name << " levels " << i << " and " << i + 1;
    }
  }
}

TEST(Modulation, UnknownNameThrows) { EXPECT_THROW(make_modulator("qam256"), pdr::Error); }

TEST(Modulation, MisalignedBitsThrow) {
  const auto mod = make_qam16();
  std::vector<std::uint8_t> bits(5);
  EXPECT_THROW(mod->map(bits), pdr::Error);
}

TEST(Modulation, QpskBerMatchesTheoryAt6dB) {
  // Gray QPSK over AWGN: BER = Q(sqrt(2 Eb/N0)).
  const auto mod = make_qpsk();
  Rng rng(11);
  AwgnChannel channel(Rng(12));
  const double ebn0_db = 6.0;
  // Es/N0 = Eb/N0 * bits_per_symbol.
  const double esn0_db = ebn0_db + 10.0 * std::log10(2.0);
  std::uint64_t errors = 0, total = 0;
  for (int block = 0; block < 40; ++block) {
    std::vector<std::uint8_t> bits(2000);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
    const auto sym = mod->map(bits);
    const auto noisy = channel.apply(sym, esn0_db);
    const auto out = mod->demap(noisy);
    for (std::size_t i = 0; i < bits.size(); ++i)
      if (out[i] != bits[i]) ++errors;
    total += bits.size();
  }
  const double measured = static_cast<double>(errors) / static_cast<double>(total);
  const double theory = theoretical_ber("qpsk", ebn0_db);  // ~2.4e-3
  EXPECT_GT(measured, theory * 0.5);
  EXPECT_LT(measured, theory * 2.0);
}

TEST(Modulation, TheoreticalBerMonotone) {
  for (const char* m : {"bpsk", "qpsk", "qam16", "qam64"}) {
    EXPECT_GT(theoretical_ber(m, 2.0), theoretical_ber(m, 8.0)) << m;
  }
  // At equal Eb/N0, denser constellations are worse.
  EXPECT_GT(theoretical_ber("qam16", 8.0), theoretical_ber("qpsk", 8.0));
  EXPECT_GT(theoretical_ber("qam64", 8.0), theoretical_ber("qam16", 8.0));
}

TEST(Modulation, SoftDemapSignsMatchHardDecisions) {
  for (const char* name : {"qpsk", "qam16"}) {
    const auto mod = make_modulator(name);
    Rng rng(41);
    for (int trial = 0; trial < 50; ++trial) {
      const Cplx y{rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)};
      std::vector<std::uint8_t> hard;
      mod->demap_symbol(y, hard);
      std::vector<double> soft;
      mod->demap_soft_symbol(y, 0.5, soft);
      ASSERT_EQ(soft.size(), hard.size());
      for (std::size_t b = 0; b < hard.size(); ++b) {
        if (std::abs(soft[b]) < 1e-9) continue;  // boundary tie
        EXPECT_EQ(hard[b], soft[b] > 0 ? 0 : 1) << name << " bit " << b;
      }
    }
  }
}

TEST(Modulation, SoftDemapConfidenceScalesWithDistanceAndNoise) {
  const auto mod = make_qpsk();
  std::vector<double> near, far, noisy;
  mod->demap_soft_symbol(Cplx{0.1, 0.1}, 1.0, near);
  mod->demap_soft_symbol(Cplx{1.0, 1.0}, 1.0, far);
  mod->demap_soft_symbol(Cplx{1.0, 1.0}, 4.0, noisy);
  EXPECT_GT(std::abs(far[0]), std::abs(near[0]));    // farther from boundary
  EXPECT_GT(std::abs(far[0]), std::abs(noisy[0]));   // more noise, less confidence
  EXPECT_THROW(mod->demap_soft_symbol(Cplx{0, 0}, 0.0, near), pdr::Error);
}

TEST(Modulation, SoftViterbiOutperformsHardThroughChannel) {
  // End to end: QPSK + AWGN at low SNR; soft-decision Viterbi must make
  // fewer errors than hard-decision on the same noisy observations.
  const auto mod = make_qpsk();
  const dsp::ConvolutionalCode code = dsp::ConvolutionalCode::k7_rate_half();
  AwgnChannel channel(Rng(51));
  Rng rng(52);
  std::uint64_t hard_errors = 0, soft_errors = 0, total = 0;
  const double snr_db = 1.0;
  const double noise_var = std::pow(10.0, -snr_db / 10.0);
  for (int blk = 0; blk < 20; ++blk) {
    std::vector<std::uint8_t> bits(200);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
    const auto coded = code.encode(bits);
    const auto symbols = mod->map(coded);
    const auto noisy = channel.apply(symbols, snr_db);
    const auto hard = code.decode(mod->demap(noisy));
    const auto soft = code.decode_soft(mod->demap_soft(noisy, noise_var));
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (hard[i] != bits[i]) ++hard_errors;
      if (soft[i] != bits[i]) ++soft_errors;
    }
    total += bits.size();
  }
  EXPECT_LT(soft_errors, hard_errors);
  EXPECT_GT(hard_errors, 0u);  // low enough SNR that hard decoding struggles
}

// --- spreading ---------------------------------------------------------------------

TEST(Spreading, RoundTripAllUsers) {
  McCdmaParams p;
  const Spreader spreader(p);
  Rng rng(5);
  std::vector<std::vector<Cplx>> user_symbols(p.n_users);
  for (auto& symbols : user_symbols) {
    symbols.resize(p.symbols_per_user());
    for (auto& s : symbols) s = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  const auto chips = spreader.spread(user_symbols);
  EXPECT_EQ(chips.size(), p.n_subcarriers);
  for (std::size_t u = 0; u < p.n_users; ++u) {
    const auto recovered = spreader.despread(chips, u);
    ASSERT_EQ(recovered.size(), p.symbols_per_user());
    for (std::size_t g = 0; g < recovered.size(); ++g)
      EXPECT_NEAR(std::abs(recovered[g] - user_symbols[u][g]), 0.0, 1e-12);
  }
}

TEST(Spreading, SingleUserNoInterference) {
  McCdmaParams p;
  p.n_users = 1;
  const Spreader spreader(p);
  std::vector<std::vector<Cplx>> user_symbols(1);
  user_symbols[0].assign(p.symbols_per_user(), Cplx{1.0, 0.0});
  const auto chips = spreader.spread(user_symbols);
  const auto rec = spreader.despread(chips, 0);
  for (const auto& s : rec) EXPECT_NEAR(std::abs(s - Cplx{1.0, 0.0}), 0.0, 1e-12);
}

TEST(Spreading, FullLoadStillOrthogonal) {
  McCdmaParams p;
  p.n_users = p.spreading_factor;  // fully loaded system
  const Spreader spreader(p);
  Rng rng(9);
  std::vector<std::vector<Cplx>> user_symbols(p.n_users);
  for (auto& symbols : user_symbols) {
    symbols.resize(p.symbols_per_user());
    for (auto& s : symbols) s = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  }
  const auto chips = spreader.spread(user_symbols);
  for (std::size_t u = 0; u < p.n_users; u += 5) {
    const auto rec = spreader.despread(chips, u);
    for (std::size_t g = 0; g < rec.size(); ++g)
      EXPECT_NEAR(std::abs(rec[g] - user_symbols[u][g]), 0.0, 1e-12);
  }
}

TEST(Spreading, SizeMismatchesRejected) {
  const Spreader spreader(McCdmaParams{});
  std::vector<std::vector<Cplx>> wrong(2);
  EXPECT_THROW(spreader.spread(wrong), pdr::Error);
  std::vector<Cplx> chips(10);
  EXPECT_THROW(spreader.despread(chips, 0), pdr::Error);
}

// --- ofdm --------------------------------------------------------------------------

TEST(Ofdm, RoundTrip) {
  McCdmaParams p;
  const OfdmModulator ofdm(p);
  Rng rng(13);
  std::vector<Cplx> chips(p.n_subcarriers);
  for (auto& c : chips) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto samples = ofdm.modulate(chips);
  EXPECT_EQ(samples.size(), p.samples_per_symbol());
  const auto back = ofdm.demodulate(samples);
  for (std::size_t i = 0; i < chips.size(); ++i)
    EXPECT_NEAR(std::abs(back[i] - chips[i]), 0.0, 1e-9);
}

TEST(Ofdm, CyclicPrefixIsTail) {
  McCdmaParams p;
  const OfdmModulator ofdm(p);
  std::vector<Cplx> chips(p.n_subcarriers, Cplx{1.0, 0.0});
  const auto samples = ofdm.modulate(chips);
  for (std::size_t i = 0; i < p.cyclic_prefix; ++i)
    EXPECT_NEAR(std::abs(samples[i] - samples[p.n_subcarriers + i]), 0.0, 1e-12);
}

TEST(Ofdm, EnergyPreservedUnitaryConvention) {
  McCdmaParams p;
  const OfdmModulator ofdm(p);
  Rng rng(14);
  std::vector<Cplx> chips(p.n_subcarriers);
  double e_freq = 0;
  for (auto& c : chips) {
    c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    e_freq += std::norm(c);
  }
  const auto samples = ofdm.modulate(chips);
  double e_body = 0;
  for (std::size_t i = p.cyclic_prefix; i < samples.size(); ++i) e_body += std::norm(samples[i]);
  EXPECT_NEAR(e_body, e_freq, 1e-9 * e_freq);
}

// --- channel ------------------------------------------------------------------------

TEST(Channel, AwgnHitsTargetSnr) {
  AwgnChannel channel(Rng(21));
  std::vector<Cplx> samples(20000, Cplx{1.0, 0.0});
  const auto noisy = channel.apply(samples, 10.0);
  double noise_power = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) noise_power += std::norm(noisy[i] - samples[i]);
  noise_power /= static_cast<double>(samples.size());
  const double measured_snr_db = 10.0 * std::log10(1.0 / noise_power);
  EXPECT_NEAR(measured_snr_db, 10.0, 0.3);
}

TEST(Channel, SnrTraceStaysBounded) {
  SnrTrace::Config cfg;
  cfg.lo_db = 2.0;
  cfg.hi_db = 20.0;
  SnrTrace trace(cfg, Rng(33));
  for (double v : trace.generate(5000)) {
    EXPECT_GE(v, 2.0);
    EXPECT_LE(v, 20.0);
  }
}

TEST(Channel, SnrTraceMeanReverts) {
  SnrTrace::Config cfg;
  cfg.initial_db = 4.0;
  cfg.mean_db = 12.0;
  cfg.reversion = 0.05;
  SnrTrace trace(cfg, Rng(34));
  const auto values = trace.generate(8000);
  double late_mean = 0;
  for (std::size_t i = values.size() - 2000; i < values.size(); ++i) late_mean += values[i];
  late_mean /= 2000.0;
  EXPECT_NEAR(late_mean, 12.0, 1.5);
}

TEST(Channel, InvalidConfigsRejected) {
  SnrTrace::Config bad;
  bad.lo_db = 10.0;
  bad.hi_db = 5.0;
  EXPECT_THROW(SnrTrace(bad, Rng(1)), pdr::Error);
}

// --- adaptive controller ----------------------------------------------------------------

TEST(Adaptive, HysteresisPreventsPingPong) {
  AdaptiveController::Config cfg;
  cfg.up_threshold_db = 14.0;
  cfg.down_threshold_db = 10.0;
  cfg.guard_db = 0.0;
  AdaptiveController ctl(cfg);
  EXPECT_EQ(ctl.active(), "qpsk");
  // Oscillating between the thresholds must not switch.
  for (double snr : {11.0, 13.0, 11.0, 13.9, 10.1}) {
    const auto d = ctl.update(snr);
    EXPECT_FALSE(d.switched) << snr;
  }
  EXPECT_EQ(ctl.switches(), 0);
  EXPECT_TRUE(ctl.update(14.5).switched);
  EXPECT_EQ(ctl.active(), "qam16");
  EXPECT_FALSE(ctl.update(10.5).switched);  // above down threshold
  EXPECT_TRUE(ctl.update(9.0).switched);
  EXPECT_EQ(ctl.active(), "qpsk");
  EXPECT_EQ(ctl.switches(), 2);
}

TEST(Adaptive, GuardBandAnnounces) {
  AdaptiveController::Config cfg;
  cfg.up_threshold_db = 14.0;
  cfg.down_threshold_db = 10.0;
  cfg.guard_db = 2.0;
  AdaptiveController ctl(cfg);
  const auto d1 = ctl.update(11.0);  // far from switch
  EXPECT_FALSE(d1.announce.has_value());
  const auto d2 = ctl.update(12.5);  // within guard of 14
  ASSERT_TRUE(d2.announce.has_value());
  EXPECT_EQ(*d2.announce, "qam16");
  const auto d3 = ctl.update(14.2);  // actual switch, no announce
  EXPECT_TRUE(d3.switched);
  EXPECT_FALSE(d3.announce.has_value());
  const auto d4 = ctl.update(11.5);  // qam16 active, drifting down
  ASSERT_TRUE(d4.announce.has_value());
  EXPECT_EQ(*d4.announce, "qpsk");
}

TEST(Adaptive, BadConfigRejected) {
  AdaptiveController::Config cfg;
  cfg.up_threshold_db = 10.0;
  cfg.down_threshold_db = 14.0;
  EXPECT_THROW(AdaptiveController{cfg}, pdr::Error);
}

// --- transmitter + receiver loopback -----------------------------------------------------

class LoopbackTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LoopbackTest, NoiselessLoopbackIsBitExact) {
  McCdmaParams p;
  Transmitter tx(p);
  Receiver rx(p);
  tx.select_modulation(GetParam());
  rx.select_modulation(GetParam());
  BerReport report;
  for (int k = 0; k < 20; ++k) {
    const TxSymbol sym = tx.next_symbol();
    rx.measure(sym.samples, sym.user_bits, report);
  }
  EXPECT_GT(report.bits, 0u);
  EXPECT_EQ(report.errors, 0u);
}

TEST_P(LoopbackTest, HighSnrLoopbackNearlyClean) {
  McCdmaParams p;
  Transmitter tx(p);
  Receiver rx(p);
  AwgnChannel channel(Rng(55));
  tx.select_modulation(GetParam());
  rx.select_modulation(GetParam());
  BerReport report;
  for (int k = 0; k < 50; ++k) {
    const TxSymbol sym = tx.next_symbol();
    rx.measure(channel.apply(sym.samples, 35.0), sym.user_bits, report);
  }
  EXPECT_LT(report.ber(), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Mods, LoopbackTest, ::testing::Values("bpsk", "qpsk", "qam16", "qam64"));

TEST(Transmitter, BitsPerSymbolTracksModulation) {
  McCdmaParams p;
  Transmitter tx(p);
  tx.select_modulation("qpsk");
  const std::size_t qpsk_bits = tx.bits_per_user_symbol();
  tx.select_modulation("qam16");
  EXPECT_EQ(tx.bits_per_user_symbol(), 2 * qpsk_bits);
}

TEST(Transmitter, SymbolCarriesModulationName) {
  McCdmaParams p;
  Transmitter tx(p);
  tx.select_modulation("qam16");
  EXPECT_EQ(tx.next_symbol().modulation, "qam16");
}

TEST(Transmitter, FixedPointPathMatchesFloatWithinQuantization) {
  McCdmaParams p;
  Transmitter float_tx(p);
  Transmitter fixed_tx(p);
  fixed_tx.set_fixed_point(true);
  EXPECT_TRUE(fixed_tx.fixed_point());

  // Same bits through both paths: samples agree within Q15 quantization.
  std::vector<std::vector<std::uint8_t>> bits(p.n_users);
  Rng rng(61);
  for (auto& ub : bits) {
    ub.resize(float_tx.bits_per_user_symbol());
    for (auto& b : ub) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  }
  const TxSymbol a = float_tx.make_symbol(bits);
  const TxSymbol b = fixed_tx.make_symbol(bits);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i)
    EXPECT_NEAR(std::abs(a.samples[i] - b.samples[i]), 0.0, 2e-3);
}

TEST(Transmitter, FixedPointLoopbackStillBitExact) {
  // Quantization noise is far below the QPSK decision distance.
  McCdmaParams p;
  Transmitter tx(p);
  tx.set_fixed_point(true);
  Receiver rx(p);
  BerReport report;
  for (int k = 0; k < 20; ++k) {
    const TxSymbol sym = tx.next_symbol();
    rx.measure(sym.samples, sym.user_bits, report);
  }
  EXPECT_EQ(report.errors, 0u);
}

TEST(Transmitter, WrongBitCountRejected) {
  McCdmaParams p;
  Transmitter tx(p);
  std::vector<std::vector<std::uint8_t>> bits(p.n_users, std::vector<std::uint8_t>(3));
  EXPECT_THROW(tx.make_symbol(bits), pdr::Error);
}

class ChainBerTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ChainBerTest, FullChainBerTracksTheoryWithProcessingGain) {
  // Through spreading + OFDM, a partially loaded system (users < SF)
  // collects an SF/users processing gain; compensating for it, the whole
  // chain's BER must track the Gray-coding theory curve.
  McCdmaParams p;
  Transmitter tx(p);
  Receiver rx(p);
  tx.select_modulation(GetParam());
  rx.select_modulation(GetParam());
  const int bits = make_modulator(GetParam())->bits_per_symbol();
  const double ebn0_db = 4.0;
  const double esn0_db = ebn0_db + 10.0 * std::log10(static_cast<double>(bits)) -
                         10.0 * std::log10(static_cast<double>(p.spreading_factor) / p.n_users);
  AwgnChannel channel(Rng(31));
  BerReport report;
  for (int k = 0; k < 600; ++k) {
    const TxSymbol sym = tx.next_symbol();
    rx.measure(channel.apply(sym.samples, esn0_db), sym.user_bits, report);
  }
  const double theory = theoretical_ber(GetParam(), ebn0_db);
  EXPECT_GT(report.ber(), theory * 0.5) << "measured " << report.ber();
  EXPECT_LT(report.ber(), theory * 2.0) << "measured " << report.ber();
}

INSTANTIATE_TEST_SUITE_P(Mods, ChainBerTest, ::testing::Values("qpsk", "qam16"));

// --- multipath channel + equalization ------------------------------------------

TEST(Multipath, FlatChannelIsTransparent) {
  MultipathChannel channel({Cplx{1.0, 0.0}}, Rng(1));
  std::vector<Cplx> samples(64, Cplx{0.7, -0.3});
  const auto out = channel.apply(samples, 400.0);  // noiseless
  for (std::size_t i = 0; i < samples.size(); ++i)
    EXPECT_NEAR(std::abs(out[i] - samples[i]), 0.0, 1e-12);
}

TEST(Multipath, ExponentialProfileUnitPower) {
  Rng rng(5);
  const auto taps = MultipathChannel::exponential_profile(6, 2.0, rng);
  EXPECT_EQ(taps.size(), 6u);
  double power = 0;
  for (const auto& t : taps) power += std::norm(t);
  EXPECT_NEAR(power, 1.0, 1e-12);
}

TEST(Multipath, FrequencyResponseMatchesFftOfTaps) {
  Rng rng(6);
  const auto taps = MultipathChannel::exponential_profile(4, 1.5, rng);
  MultipathChannel channel(taps, Rng(7));
  const auto h = channel.frequency_response(64);
  EXPECT_EQ(h.size(), 64u);
  // DC bin equals the tap sum.
  Cplx sum{0, 0};
  for (const auto& t : taps) sum += t;
  EXPECT_NEAR(std::abs(h[0] - sum), 0.0, 1e-9);
}

TEST(Multipath, EqualizedLoopbackIsBitExactWithinCp) {
  // Channel shorter than the cyclic prefix + ZF equalizer = exact
  // recovery (the MC-CDMA design point).
  McCdmaParams p;
  Rng rng(11);
  const auto taps = MultipathChannel::exponential_profile(8, 2.0, rng);  // 8 < CP=16
  MultipathChannel channel(taps, Rng(12));
  Transmitter tx(p);
  Receiver rx(p);
  rx.set_channel_response(channel.frequency_response(p.n_subcarriers));
  BerReport report;
  for (int k = 0; k < 20; ++k) {
    const TxSymbol sym = tx.next_symbol();
    rx.measure(channel.apply(sym.samples, 400.0), sym.user_bits, report);
  }
  EXPECT_EQ(report.errors, 0u);
}

TEST(Multipath, WithoutEqualizerMultipathCorrupts) {
  McCdmaParams p;
  Rng rng(13);
  const auto taps = MultipathChannel::exponential_profile(8, 2.0, rng);
  MultipathChannel channel(taps, Rng(14));
  Transmitter tx(p);
  Receiver rx(p);  // no equalizer installed
  BerReport report;
  for (int k = 0; k < 10; ++k) {
    const TxSymbol sym = tx.next_symbol();
    rx.measure(channel.apply(sym.samples, 400.0), sym.user_bits, report);
  }
  EXPECT_GT(report.ber(), 0.01);
}

TEST(Multipath, ChannelLongerThanCpCausesIsi) {
  McCdmaParams p;  // CP = 16
  Rng rng(15);
  // Near-flat 48-tap channel: most of the energy arrives after the CP
  // window, so inter-symbol interference must leak through even with a
  // perfect ZF equalizer. QAM-64's small decision distance exposes it.
  const auto taps = MultipathChannel::exponential_profile(48, 100.0, rng);
  MultipathChannel channel(taps, Rng(16));
  Transmitter tx(p);
  Receiver rx(p);
  tx.select_modulation("qam64");
  rx.select_modulation("qam64");
  rx.set_channel_response(channel.frequency_response(p.n_subcarriers));
  BerReport report;
  for (int k = 0; k < 40; ++k) {
    const TxSymbol sym = tx.next_symbol();
    rx.measure(channel.apply(sym.samples, 400.0), sym.user_bits, report);
  }
  EXPECT_GT(report.errors, 0u);  // even equalized, ISI leaks past the CP
}

TEST(Multipath, EqualizerRejectsSpectralNull) {
  Receiver rx(McCdmaParams{});
  std::vector<Cplx> h(64, Cplx{1.0, 0.0});
  h[5] = {0.0, 0.0};
  EXPECT_THROW(rx.set_channel_response(h), pdr::Error);
  // MMSE tolerates the null (the weight just goes to zero there).
  EXPECT_NO_THROW(rx.set_channel_response(h, Receiver::Equalizer::Mmse, 10.0));
  h[5] = {0.5, 0.0};
  EXPECT_NO_THROW(rx.set_channel_response(h));
  EXPECT_THROW(rx.set_channel_response(std::vector<Cplx>(32, Cplx{1, 0})), pdr::Error);
}

TEST(Multipath, MmseBeatsZfAtLowSnrOnFadedChannel) {
  McCdmaParams p;
  Rng rng(71);
  // A deeply faded channel (few taps, strong frequency selectivity).
  const auto taps = MultipathChannel::exponential_profile(4, 3.0, rng);
  const double snr_db = 6.0;
  mccdma::BerReport zf_report, mmse_report;
  for (int chan = 0; chan < 6; ++chan) {
    Rng taps_rng(100 + static_cast<std::uint64_t>(chan));
    const auto h_taps = MultipathChannel::exponential_profile(4, 3.0, taps_rng);
    MultipathChannel channel(h_taps, Rng(200 + static_cast<std::uint64_t>(chan)));
    Transmitter tx(p);
    Receiver zf_rx(p), mmse_rx(p);
    const auto h = channel.frequency_response(p.n_subcarriers);
    zf_rx.set_channel_response(h, Receiver::Equalizer::Zf);
    mmse_rx.set_channel_response(h, Receiver::Equalizer::Mmse, snr_db);
    for (int k = 0; k < 60; ++k) {
      const TxSymbol sym = tx.next_symbol();
      const auto noisy = channel.apply(sym.samples, snr_db);
      zf_rx.measure(noisy, sym.user_bits, zf_report);
      mmse_rx.measure(noisy, sym.user_bits, mmse_report);
    }
  }
  EXPECT_GT(zf_report.errors, 0u);
  EXPECT_LE(mmse_report.errors, zf_report.errors);
  (void)taps;
}

TEST(Multipath, MmseEqualsZfAtHighSnr) {
  // As SNR -> inf, the MMSE weight converges to the ZF inverse.
  McCdmaParams p;
  Rng rng(81);
  const auto taps = MultipathChannel::exponential_profile(6, 2.0, rng);
  MultipathChannel channel(taps, Rng(82));
  Transmitter tx(p);
  Receiver zf_rx(p), mmse_rx(p);
  const auto h = channel.frequency_response(p.n_subcarriers);
  zf_rx.set_channel_response(h, Receiver::Equalizer::Zf);
  mmse_rx.set_channel_response(h, Receiver::Equalizer::Mmse, 80.0);
  const TxSymbol sym = tx.next_symbol();
  const auto clean = channel.apply(sym.samples, 400.0);
  EXPECT_EQ(zf_rx.receive(clean), mmse_rx.receive(clean));
}

// --- pilot-based channel estimation ------------------------------------------

TEST(Estimator, PilotChipsAreBpsk) {
  const ChannelEstimator est(McCdmaParams{});
  EXPECT_EQ(est.pilot_chips().size(), 64u);
  for (const auto& c : est.pilot_chips()) {
    EXPECT_NEAR(std::abs(c.real()), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(Estimator, NoiselessEstimateIsExact) {
  McCdmaParams p;
  const ChannelEstimator est(p);
  Rng rng(21);
  const auto taps = MultipathChannel::exponential_profile(6, 2.0, rng);
  MultipathChannel channel(taps, Rng(22));
  const auto truth = channel.frequency_response(p.n_subcarriers);
  const auto received = channel.apply(est.pilot_samples(), 400.0);
  const auto h = est.estimate(received);
  EXPECT_LT(ChannelEstimator::mse(h, truth), 1e-20);
}

TEST(Estimator, SmoothingReducesNoisyMse) {
  McCdmaParams p;
  const ChannelEstimator est(p);
  Rng rng(23);
  // A short channel varies slowly across subcarriers, so smoothing helps.
  const auto taps = MultipathChannel::exponential_profile(3, 1.0, rng);
  MultipathChannel channel(taps, Rng(24));
  const auto truth = channel.frequency_response(p.n_subcarriers);
  double raw_mse = 0, smooth_mse = 0;
  for (int trial = 0; trial < 10; ++trial) {
    channel.reset();
    const auto received = channel.apply(est.pilot_samples(), 10.0);
    const auto h = est.estimate(received);
    raw_mse += ChannelEstimator::mse(h, truth);
    smooth_mse += ChannelEstimator::mse(ChannelEstimator::smooth(h, 2), truth);
  }
  EXPECT_LT(smooth_mse, raw_mse);
}

TEST(Estimator, EstimatedEqualizerMatchesGenieLoopback) {
  McCdmaParams p;
  Rng rng(25);
  const auto taps = MultipathChannel::exponential_profile(8, 2.0, rng);
  MultipathChannel channel(taps, Rng(26));
  const ChannelEstimator est(p);

  // Estimate from one noiseless pilot, then run data symbols.
  const auto h = est.estimate(channel.apply(est.pilot_samples(), 400.0));
  Transmitter tx(p);
  Receiver rx(p);
  rx.set_channel_response(h);
  BerReport report;
  for (int k = 0; k < 15; ++k) {
    const TxSymbol sym = tx.next_symbol();
    rx.measure(channel.apply(sym.samples, 400.0), sym.user_bits, report);
  }
  EXPECT_EQ(report.errors, 0u);
}

TEST(Estimator, SmoothArgsValidated) {
  std::vector<Cplx> h(8, Cplx{1, 0});
  EXPECT_THROW(ChannelEstimator::smooth(h, -1), pdr::Error);
  EXPECT_EQ(ChannelEstimator::smooth(h, 0).size(), 8u);
  EXPECT_THROW(ChannelEstimator::mse(h, std::vector<Cplx>(4)), pdr::Error);
}

TEST(Receiver, EvmRisesWithNoise) {
  McCdmaParams p;
  Transmitter tx(p);
  Receiver rx(p);
  AwgnChannel channel(Rng(77));
  const TxSymbol sym = tx.next_symbol();
  const double clean = rx.evm(sym.samples);
  const double noisy = rx.evm(channel.apply(sym.samples, 10.0));
  EXPECT_LT(clean, 1e-9);
  EXPECT_GT(noisy, clean);
}

}  // namespace
}  // namespace pdr::mccdma
