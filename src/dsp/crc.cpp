#include "dsp/crc.hpp"

#include <array>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define PDR_CRC_CLMUL 1
#include <immintrin.h>
#endif

namespace pdr::dsp {
namespace {

using Table = std::array<std::uint32_t, 256>;

// Slice-by-8 tables: kTables[0] is the classic bytewise table; entry i of
// kTables[k] advances the CRC of byte i through k further zero bytes, so
// eight bytes fold into the state with eight independent lookups.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      tables[k][i] = (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xffu];
  return tables;
}

constexpr auto kTables = make_tables();

/// Four bytes as a little-endian word (one load on little-endian hosts).
std::uint32_t le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint32_t slice_by_8(std::uint32_t s, const std::uint8_t* p, std::size_t n) {
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = s ^ le32(p);
    const std::uint32_t hi = le32(p + 4);
    s = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^ kTables[5][(lo >> 16) & 0xffu] ^
        kTables[4][lo >> 24] ^ kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
        kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) s = kTables[0][(s ^ *p) & 0xffu] ^ (s >> 8);
  return s;
}

#ifdef PDR_CRC_CLMUL

/// Shortest span the carry-less fold takes: four 16-byte lanes.
constexpr std::size_t kFoldMin = 64;

/// True when the CPU has PCLMULQDQ. Asked once, on first use: a
/// function-local static, so cpuid runs after libgcc's own start-up.
bool has_clmul() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return supported;
}

[[gnu::target("pclmul,sse2")]] __m128i load16(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Carries the 128-bit lane `x` forward over the distance the constant
/// pair `k` encodes (one multiply per 64-bit half).
[[gnu::target("pclmul,sse2")]] __m128i fold16(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11));
}

/// Folds `n` bytes (n >= 64, a multiple of 16) into the CRC state `s`
/// with carry-less multiplication: Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009. The
/// constants are the bit-reflected ones for 0x04C11DB7 that zlib,
/// Chromium and Linux use: k1/k2 fold 64 bytes at a time, k3/k4 fold 16,
/// k5 folds 128 bits to 64, and P/mu are the Barrett reduction's
/// polynomial and quotient.
[[gnu::target("pclmul,sse2")]] std::uint32_t clmul_fold(std::uint32_t s, const std::uint8_t* p,
                                                        std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(s)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = _mm_xor_si128(fold16(x1, k1k2), load16(p));
    x2 = _mm_xor_si128(fold16(x2, k1k2), load16(p + 16));
    x3 = _mm_xor_si128(fold16(x3, k1k2), load16(p + 32));
    x4 = _mm_xor_si128(fold16(x4, k1k2), load16(p + 48));
  }
  // Four lanes into one, then the remaining 16-byte blocks.
  x1 = _mm_xor_si128(fold16(x1, k3k4), x2);
  x1 = _mm_xor_si128(fold16(x1, k3k4), x3);
  x1 = _mm_xor_si128(fold16(x1, k3k4), x4);
  for (; n >= 16; p += 16, n -= 16) x1 = _mm_xor_si128(fold16(x1, k3k4), load16(p));

  // 128 bits to 64, then 64 to 32 by Barrett reduction.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
                     _mm_srli_si128(x1, 4));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, q);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

#endif  // PDR_CRC_CLMUL

}  // namespace

void Crc32::update_byte(std::uint8_t byte) {
  state_ = kTables[0][(state_ ^ byte) & 0xffu] ^ (state_ >> 8);
}

void Crc32::update(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#ifdef PDR_CRC_CLMUL
  if (n >= kFoldMin && has_clmul()) {
    const std::size_t blocks = n & ~std::size_t{15};
    state_ = clmul_fold(state_, p, blocks);
    p += blocks;
    n -= blocks;
  }
#endif
  state_ = slice_by_8(state_, p, n);
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  Crc32 crc;
  crc.update(data);
  return crc.value();
}

}  // namespace pdr::dsp
