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
  /// Folds `data` in eight bytes per step (slice-by-8); the result equals
  /// update_byte() over every byte in order.
  void update(std::span<const std::uint8_t> data);
  void update_byte(std::uint8_t byte);
  std::uint32_t value() const { return state_ ^ 0xffffffffu; }
  void reset() { state_ = 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

}  // namespace pdr::dsp
