#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "dsp/convcode.hpp"
#include "dsp/crc.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/fixed.hpp"
#include "dsp/prbs.hpp"
#include "dsp/walsh.hpp"
#include "mccdma/case_study.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pdr::dsp {
namespace {

// --- fixed point -------------------------------------------------------------

TEST(Q15, ConversionRoundTrip) {
  EXPECT_NEAR(Q15::from_double(0.5).to_double(), 0.5, 1e-4);
  EXPECT_NEAR(Q15::from_double(-0.25).to_double(), -0.25, 1e-4);
  EXPECT_EQ(Q15::from_double(0.0).raw(), 0);
}

TEST(Q15, SaturatesAtBounds) {
  EXPECT_EQ(Q15::from_double(2.0).raw(), 32767);
  EXPECT_EQ(Q15::from_double(-2.0).raw(), -32768);
  const Q15 big = Q15::from_double(0.9);
  EXPECT_EQ((big + big).raw(), 32767);  // 1.8 saturates
}

TEST(Q15, Multiplication) {
  const Q15 half = Q15::from_double(0.5);
  EXPECT_NEAR((half * half).to_double(), 0.25, 1e-3);
  const Q15 neg = Q15::from_double(-0.5);
  EXPECT_NEAR((half * neg).to_double(), -0.25, 1e-3);
}

TEST(Q15, NegationSaturatesMin) {
  EXPECT_EQ((-Q15::from_raw(-32768)).raw(), 32767);
  EXPECT_EQ((-Q15::from_double(0.5)).to_double(), -0.5);
}

TEST(CQ15, ComplexMultiply) {
  const CQ15 i{Q15::from_double(0.0), Q15::from_double(0.5)};
  const CQ15 sq = i * i;  // (0.5j)^2 = -0.25
  EXPECT_NEAR(sq.re.to_double(), -0.25, 1e-3);
  EXPECT_NEAR(sq.im.to_double(), 0.0, 1e-3);
}

// --- fft -----------------------------------------------------------------------

class FftSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizeTest, RoundTripRestoresInput) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<Cplx> x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  auto y = fft_copy(x);
  ifft(y);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-9);
  }
}

TEST_P(FftSizeTest, ParsevalHolds) {
  const std::size_t n = GetParam();
  Rng rng(n * 7 + 1);
  std::vector<Cplx> x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto y = fft_copy(x);
  double ex = 0, ey = 0;
  for (const auto& v : x) ex += std::norm(v);
  for (const auto& v : y) ey += std::norm(v);
  EXPECT_NEAR(ey, ex * static_cast<double>(n), 1e-6 * ex * n);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizeTest,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024));

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<Cplx> x(8, Cplx{0, 0});
  x[0] = {1, 0};
  fft(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsOnItsBin) {
  const std::size_t n = 64;
  const std::size_t k = 5;
  std::vector<Cplx> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = 2.0 * M_PI * k * i / n;
    x[i] = {std::cos(ph), std::sin(ph)};
  }
  fft(x);
  for (std::size_t i = 0; i < n; ++i) {
    const double mag = std::abs(x[i]);
    if (i == k)
      EXPECT_NEAR(mag, static_cast<double>(n), 1e-9);
    else
      EXPECT_NEAR(mag, 0.0, 1e-9);
  }
}

TEST(Fft, Linearity) {
  Rng rng(3);
  std::vector<Cplx> a(32), b(32), sum(32);
  for (std::size_t i = 0; i < 32; ++i) {
    a[i] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    b[i] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    sum[i] = a[i] + 2.0 * b[i];
  }
  const auto fa = fft_copy(a);
  const auto fb = fft_copy(b);
  const auto fs = fft_copy(sum);
  for (std::size_t i = 0; i < 32; ++i)
    EXPECT_NEAR(std::abs(fs[i] - (fa[i] + 2.0 * fb[i])), 0.0, 1e-9);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Cplx> x(6);
  EXPECT_THROW(fft(x), Error);
}

TEST(Fft, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_EQ(log2_pow2(64), 6u);
}

// --- fir design + filtering -----------------------------------------------------

TEST(Fir, LowpassUnitDcGainAndStopband) {
  const auto taps = lowpass_taps(63, 0.1);
  const auto mag = magnitude_response(taps, 101);
  EXPECT_NEAR(mag[0], 1.0, 1e-9);     // DC gain
  EXPECT_GT(mag[10], 0.7);            // passband (f=0.05)
  EXPECT_LT(mag[60], 0.05);           // stopband (f=0.30)
  EXPECT_LT(mag[100], 0.05);          // Nyquist
}

TEST(Fir, HighpassMirrorsLowpass) {
  const auto taps = highpass_taps(63, 0.3);
  const auto mag = magnitude_response(taps, 101);
  EXPECT_LT(mag[0], 1e-6);   // DC blocked
  EXPECT_NEAR(mag[100], 1.0, 0.05);  // Nyquist passed
  EXPECT_LT(mag[20], 0.05);  // stopband (f=0.10)
}

TEST(Fir, FilterSeparatesTones) {
  // low tone + high tone in, low-pass out: high tone attenuated > 20 dB.
  const std::size_t n = 2048;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    x[i] = std::sin(2 * M_PI * 0.02 * t) + std::sin(2 * M_PI * 0.4 * t);
  }
  const auto y = fir_filter(x, lowpass_taps(101, 0.1));
  // Spectral check via FFT (skip the filter's transient head).
  std::vector<Cplx> spec(1024);
  for (std::size_t i = 0; i < spec.size(); ++i) spec[i] = {y[n - 1024 + i], 0.0};
  fft(spec);
  const auto bin = [&](double f) { return std::abs(spec[static_cast<std::size_t>(f * 1024)]); };
  EXPECT_GT(bin(0.02), 100.0 * bin(0.4));
}

TEST(Fir, LinearPhaseSymmetry) {
  const auto taps = lowpass_taps(31, 0.2);
  for (std::size_t i = 0; i < taps.size() / 2; ++i)
    EXPECT_NEAR(taps[i], taps[taps.size() - 1 - i], 1e-12);
}

TEST(Fir, ImpulseResponseIsTaps) {
  const auto taps = lowpass_taps(15, 0.25);
  std::vector<double> impulse(20, 0.0);
  impulse[0] = 1.0;
  const auto y = fir_filter(impulse, taps);
  for (std::size_t i = 0; i < taps.size(); ++i) EXPECT_NEAR(y[i], taps[i], 1e-15);
}

TEST(Fir, ArgumentValidation) {
  EXPECT_THROW(lowpass_taps(4, 0.1), Error);    // even
  EXPECT_THROW(lowpass_taps(15, 0.0), Error);   // cutoff low
  EXPECT_THROW(lowpass_taps(15, 0.5), Error);   // cutoff high
  std::vector<double> x(4);
  EXPECT_THROW(fir_filter(x, {}), Error);
  EXPECT_THROW(magnitude_response(std::vector<double>{1.0}, 1), Error);
}

// --- fixed-point fft -----------------------------------------------------------

class FixedFftTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FixedFftTest, ForwardMatchesScaledFloatReference) {
  const std::size_t n = GetParam();
  Rng rng(n * 3 + 1);
  std::vector<Cplx> x(n);
  for (auto& v : x) v = {rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)};

  auto q = to_q15(x);
  fft_q15(q, /*inverse=*/false);
  const auto fixed = from_q15(q);

  auto reference = fft_copy(x);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (auto& v : reference) v *= inv_n;  // fft_q15 forward = FFT/N

  // Error budget: ~1 LSB per stage of rounding.
  const double tol = 3e-5 * static_cast<double>(log2_pow2(n) + 1);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(fixed[i] - reference[i]), 0.0, tol) << "bin " << i << " n " << n;
}

TEST_P(FixedFftTest, InverseMatchesFloatIfft) {
  const std::size_t n = GetParam();
  Rng rng(n * 5 + 2);
  std::vector<Cplx> x(n);
  for (auto& v : x) v = {rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)};

  auto q = to_q15(x);
  fft_q15(q, /*inverse=*/true);
  const auto fixed = from_q15(q);
  const auto reference = ifft_copy(x);

  const double tol = 3e-5 * static_cast<double>(log2_pow2(n) + 1);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(fixed[i] - reference[i]), 0.0, tol);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FixedFftTest, ::testing::Values(2, 8, 64, 256));

TEST(FixedFft, NeverOverflowsOnFullScaleInput) {
  // Worst case: all samples at the Q15 rails. Per-stage halving keeps
  // every intermediate within range (no saturation should be needed, but
  // saturation guards it regardless).
  std::vector<CQ15> q(64, CQ15{Q15::from_raw(32767), Q15::from_raw(-32768)});
  fft_q15(q, false);
  // DC bin = mean of inputs; everything else ~0.
  EXPECT_NEAR(q[0].re.to_double(), 1.0, 1e-3);
  EXPECT_NEAR(q[0].im.to_double(), -1.0, 1e-3);
}

TEST(FixedFft, RejectsNonPowerOfTwo) {
  std::vector<CQ15> q(12);
  EXPECT_THROW(fft_q15(q, false), Error);
}

TEST(FixedFft, ConversionRoundTrip) {
  Rng rng(9);
  std::vector<Cplx> x(16);
  for (auto& v : x) v = {rng.uniform(-0.99, 0.99), rng.uniform(-0.99, 0.99)};
  const auto back = from_q15(to_q15(x));
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(back[i] - x[i]), 0.0, 1e-4);
}

// --- walsh --------------------------------------------------------------------

class WalshLengthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WalshLengthTest, DistinctCodesOrthogonal) {
  const std::size_t n = GetParam();
  const auto m = hadamard_matrix(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const long dot = walsh_dot(m[i], m[j]);
      if (i == j)
        EXPECT_EQ(dot, static_cast<long>(n));
      else
        EXPECT_EQ(dot, 0);
    }
  }
}

TEST_P(WalshLengthTest, EntriesArePlusMinusOne) {
  const std::size_t n = GetParam();
  for (std::size_t k = 0; k < n; ++k)
    for (int v : walsh_code(n, k)) EXPECT_TRUE(v == 1 || v == -1);
}

INSTANTIATE_TEST_SUITE_P(Lengths, WalshLengthTest, ::testing::Values(1, 2, 4, 8, 16, 32, 64));

TEST(Walsh, CodeZeroIsAllOnes) {
  for (int v : walsh_code(16, 0)) EXPECT_EQ(v, 1);
}

TEST(Walsh, RejectsBadArguments) {
  EXPECT_THROW(walsh_code(12, 0), Error);
  EXPECT_THROW(walsh_code(16, 16), Error);
  EXPECT_THROW(walsh_dot({1, 1}, {1}), Error);
}

// --- prbs --------------------------------------------------------------------

TEST(Prbs, Prbs7HasFullPeriod) {
  Prbs p(Prbs::Kind::Prbs7);
  EXPECT_EQ(p.period(), 127u);
  const auto first = p.bits(127);
  const auto second = p.bits(127);
  EXPECT_EQ(first, second);  // exact repetition after one period
  // Not all-equal within a period.
  EXPECT_NE(std::accumulate(first.begin(), first.end(), 0), 0);
  EXPECT_NE(std::accumulate(first.begin(), first.end(), 0), 127);
}

TEST(Prbs, BalancedWithinPeriod) {
  Prbs p(Prbs::Kind::Prbs7);
  const auto bits = p.bits(127);
  const int ones = std::accumulate(bits.begin(), bits.end(), 0);
  EXPECT_EQ(ones, 64);  // maximal LFSR: 2^(n-1) ones
}

TEST(Prbs, SeedsProduceShiftedSequences) {
  Prbs a(Prbs::Kind::Prbs15, 1), b(Prbs::Kind::Prbs15, 77);
  const auto x = a.bits(64);
  const auto y = b.bits(64);
  EXPECT_NE(x, y);
}

TEST(Prbs, ZeroSeedRejected) { EXPECT_THROW(Prbs(Prbs::Kind::Prbs7, 0), Error); }

// --- crc ---------------------------------------------------------------------

TEST(Crc32, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xcbf43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32({}), 0u); }

TEST(Crc32, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> data(257);
  Rng rng(17);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  Crc32 inc;
  inc.update(std::span(data).subspan(0, 100));
  inc.update(std::span(data).subspan(100));
  EXPECT_EQ(inc.value(), crc32(data));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(64, 0xa5);
  const auto before = crc32(data);
  data[13] ^= 0x04;
  EXPECT_NE(crc32(data), before);
}

TEST(Crc32, ResetRestoresInitialState) {
  Crc32 c;
  c.update_byte(0xff);
  c.reset();
  EXPECT_EQ(c.value(), crc32({}));
}

/// Reference CRC: one table lookup per byte, in order.
std::uint32_t bytewise_crc(std::span<const std::uint8_t> data) {
  Crc32 crc;
  for (const std::uint8_t b : data) crc.update_byte(b);
  return crc.value();
}

TEST(Crc32, UpdateMatchesBytewiseAtEveryLengthOffsetAndSplit) {
  // Lengths up to 300 reach every path of update(): slice-by-8 alone
  // (< 64 bytes), the 16-byte fold with and without its 64-byte loop,
  // and the slice-by-8 tail after it; offsets 0-15 cover every alignment.
  constexpr std::size_t kMaxLen = 300;
  constexpr std::size_t kOffsets = 16;
  std::vector<std::uint8_t> buf(kMaxLen + kOffsets);
  Rng rng(23);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
  // Every split up to 64 bytes; beyond, the splits within one byte of a
  // 16-byte boundary (64-byte ones included), counted from either end.
  const auto near_boundary = [](std::size_t n) { return (n + 1) % 16 <= 2; };
  for (std::size_t offset = 0; offset < kOffsets; ++offset) {
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const auto data = std::span<const std::uint8_t>(buf).subspan(offset, len);
      const std::uint32_t expect = bytewise_crc(data);
      ASSERT_EQ(crc32(data), expect) << "offset " << offset << ", length " << len;
      for (std::size_t split = 0; split <= len; ++split) {
        if (len > 64 && !near_boundary(split) && !near_boundary(len - split)) continue;
        Crc32 two;
        two.update(data.first(split));
        two.update(data.subspan(split));
        ASSERT_EQ(two.value(), expect)
            << "offset " << offset << ", length " << len << ", split " << split;
      }
    }
  }
}

TEST(Crc32, UpdateMatchesBytewiseOnCaseStudyBitstreams) {
  const synth::DesignBundle& bundle = mccdma::shared_case_study().bundle;
  std::vector<const std::vector<std::uint8_t>*> streams{&bundle.initial_bitstream};
  for (const auto& [region, variants] : bundle.dynamic_variants)
    for (const auto& v : variants) streams.push_back(&v.bitstream);
  ASSERT_GE(streams.size(), 3u);  // the full-device stream and both D1 variants
  for (const auto* stream : streams) {
    ASSERT_FALSE(stream->empty());
    EXPECT_EQ(crc32(*stream), bytewise_crc(*stream)) << stream->size() << "-byte stream";
  }
}

// --- convolutional code + Viterbi ----------------------------------------------

TEST(ConvCode, K7RateHalfShape) {
  const ConvolutionalCode code = ConvolutionalCode::k7_rate_half();
  EXPECT_EQ(code.constraint_length(), 7);
  EXPECT_EQ(code.rate_denominator(), 2u);
  EXPECT_EQ(code.states(), 64);
  std::vector<std::uint8_t> bits(10, 1);
  EXPECT_EQ(code.encode(bits).size(), (10u + 6u) * 2u);
}

TEST(ConvCode, CleanRoundTrip) {
  const ConvolutionalCode code = ConvolutionalCode::k7_rate_half();
  Rng rng(3);
  std::vector<std::uint8_t> bits(200);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  const auto coded = code.encode(bits);
  EXPECT_EQ(code.decode(coded), bits);
}

TEST(ConvCode, CorrectsScatteredErrors) {
  // K=7 rate-1/2 has free distance 10: sparse single errors must be
  // corrected.
  const ConvolutionalCode code = ConvolutionalCode::k7_rate_half();
  Rng rng(4);
  std::vector<std::uint8_t> bits(300);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  auto coded = code.encode(bits);
  for (std::size_t i = 25; i < coded.size(); i += 50) coded[i] ^= 1;  // 2% scattered errors
  EXPECT_EQ(code.decode(coded), bits);
}

TEST(ConvCode, CodingGainAtModerateRawBer) {
  // At 4 % raw channel BER, the decoded BER must be far below uncoded.
  const ConvolutionalCode code = ConvolutionalCode::k7_rate_half();
  Rng rng(5);
  std::uint64_t errors = 0, total = 0;
  for (int block = 0; block < 30; ++block) {
    std::vector<std::uint8_t> bits(250);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
    auto coded = code.encode(bits);
    for (auto& c : coded)
      if (rng.chance(0.04)) c ^= 1;
    const auto decoded = code.decode(coded);
    for (std::size_t i = 0; i < bits.size(); ++i)
      if (decoded[i] != bits[i]) ++errors;
    total += bits.size();
  }
  const double ber = static_cast<double>(errors) / static_cast<double>(total);
  EXPECT_LT(ber, 0.004);  // >10x below the 4% channel BER
}

TEST(ConvCode, SmallerCodesWork) {
  // K=3 (7,5) octal: the classic textbook code.
  const ConvolutionalCode code(3, {0b111, 0b101});
  std::vector<std::uint8_t> bits{1, 0, 1, 1, 0, 0, 1};
  EXPECT_EQ(code.decode(code.encode(bits)), bits);
}

TEST(ConvCode, InvalidArgumentsRejected) {
  EXPECT_THROW(ConvolutionalCode(1, {1}), Error);
  EXPECT_THROW(ConvolutionalCode(7, {}), Error);
  EXPECT_THROW(ConvolutionalCode(3, {0b11111}), Error);  // generator too wide
  const ConvolutionalCode code = ConvolutionalCode::k7_rate_half();
  std::vector<std::uint8_t> odd(7);
  EXPECT_THROW(code.decode(odd), Error);                   // not whole branches
  EXPECT_THROW(code.decode(std::vector<std::uint8_t>(4)), Error);  // shorter than tail
}

class ConvCodeLengthTest : public ::testing::TestWithParam<int> {};

TEST_P(ConvCodeLengthTest, RoundTripAtEveryLength) {
  const ConvolutionalCode code = ConvolutionalCode::k7_rate_half();
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<std::uint8_t> bits(static_cast<std::size_t>(GetParam()));
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  EXPECT_EQ(code.decode(code.encode(bits)), bits);
}

INSTANTIATE_TEST_SUITE_P(Lengths, ConvCodeLengthTest, ::testing::Values(1, 2, 7, 64, 257));

TEST(ConvCode, SoftDecodeMatchesHardOnCleanInput) {
  const ConvolutionalCode code = ConvolutionalCode::k7_rate_half();
  Rng rng(8);
  std::vector<std::uint8_t> bits(120);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  const auto coded = code.encode(bits);
  std::vector<double> llrs;
  for (const auto c : coded) llrs.push_back(c ? -4.0 : 4.0);  // confident LLRs
  EXPECT_EQ(code.decode_soft(llrs), bits);
}

TEST(ConvCode, SoftBeatsHardWithReliabilityInfo) {
  // Flip bits but mark the flipped positions as unreliable (small LLR):
  // the soft decoder must recover; aggregate over random blocks.
  const ConvolutionalCode code = ConvolutionalCode::k7_rate_half();
  Rng rng(9);
  int soft_errors = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint8_t> bits(100);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
    const auto coded = code.encode(bits);
    std::vector<double> llrs;
    for (const auto c : coded) {
      double llr = c ? -3.0 : 3.0;
      if (rng.chance(0.12)) llr = -0.2 * (llr / std::abs(llr));  // weak flip
      llrs.push_back(llr);
    }
    const auto decoded = code.decode_soft(llrs);
    for (std::size_t i = 0; i < bits.size(); ++i)
      if (decoded[i] != bits[i]) ++soft_errors;
  }
  EXPECT_LT(soft_errors, 5);  // 12% weak flips, nearly error-free
}

TEST(ConvCode, ErasuresAreNeutral) {
  // Zero LLRs (erasures) on a fraction of positions still decode.
  const ConvolutionalCode code = ConvolutionalCode::k7_rate_half();
  Rng rng(10);
  std::vector<std::uint8_t> bits(150);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  const auto coded = code.encode(bits);
  std::vector<double> llrs;
  std::size_t i = 0;
  for (const auto c : coded) llrs.push_back((i++ % 3 == 2) ? 0.0 : (c ? -4.0 : 4.0));
  EXPECT_EQ(code.decode_soft(llrs), bits);
}

TEST(ConvCode, PunctureDepunctureShapes) {
  const std::vector<std::uint8_t> coded{1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0};
  const auto sent = puncture(coded, kRate34Pattern);
  EXPECT_EQ(sent.size(), 8u);  // 12 * 4/6
  std::vector<double> llrs(sent.size(), 1.0);
  const auto restored = depuncture(llrs, kRate34Pattern, coded.size());
  EXPECT_EQ(restored.size(), coded.size());
  EXPECT_EQ(restored[2], 0.0);  // erasure at a punctured slot
  EXPECT_EQ(restored[5], 0.0);
  EXPECT_EQ(restored[0], 1.0);
}

TEST(ConvCode, PuncturedRate34RoundTrip) {
  const ConvolutionalCode code = ConvolutionalCode::k7_rate_half();
  Rng rng(11);
  std::vector<std::uint8_t> bits(120);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  const auto coded = code.encode(bits);
  const auto sent = puncture(coded, kRate34Pattern);
  std::vector<double> llrs;
  for (const auto c : sent) llrs.push_back(c ? -4.0 : 4.0);
  const auto decoded = code.decode_soft(depuncture(llrs, kRate34Pattern, coded.size()));
  EXPECT_EQ(decoded, bits);
}

TEST(ConvCode, DepunctureValidatesLength) {
  const bool pattern[] = {true, false};
  std::vector<double> llrs(3, 1.0);
  EXPECT_THROW(depuncture(llrs, pattern, 4), Error);   // needs only 2
  EXPECT_THROW(depuncture(llrs, pattern, 8), Error);   // needs 4
  EXPECT_NO_THROW(depuncture(llrs, pattern, 6));
}

}  // namespace
}  // namespace pdr::dsp
