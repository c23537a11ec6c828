#include "dsp/crc.hpp"

#include <array>

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

}  // namespace

void Crc32::update_byte(std::uint8_t byte) {
  state_ = kTables[0][(state_ ^ byte) & 0xffu] ^ (state_ >> 8);
}

void Crc32::update(std::span<const std::uint8_t> data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t s = state_;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = s ^ le32(p);
    const std::uint32_t hi = le32(p + 4);
    s = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^ kTables[5][(lo >> 16) & 0xffu] ^
        kTables[4][lo >> 24] ^ kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
        kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) s = kTables[0][(s ^ *p) & 0xffu] ^ (s >> 8);
  state_ = s;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  Crc32 crc;
  crc.update(data);
  return crc.value();
}

}  // namespace pdr::dsp
