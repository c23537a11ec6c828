// CRC-32 (IEEE 802.3 polynomial), used to seal configuration bitstreams
// exactly like the devices' configuration logic checks frame data.
#pragma once

#include <cstdint>
#include <span>

namespace pdr::dsp {

/// One-shot CRC-32 of a byte span.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// Incremental CRC-32 accumulator.
class Crc32 {
 public:
  /// Folds `data` into the CRC; the result equals update_byte() over every
  /// byte in order. On an x86 CPU with PCLMULQDQ (asked once per process)
  /// a span of 64 bytes or more folds 16 bytes per step by carry-less
  /// multiplication; its last 0-15 bytes, shorter spans and other CPUs
  /// take slice-by-8 (eight bytes per step, table lookups).
  void update(std::span<const std::uint8_t> data);
  /// One byte per table lookup: the reference update() is tested against.
  void update_byte(std::uint8_t byte);
  std::uint32_t value() const { return state_ ^ 0xffffffffu; }
  void reset() { state_ = 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

}  // namespace pdr::dsp
