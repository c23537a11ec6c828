// External bitstream memory.
//
// In the paper's implementation the protocol builder "address[es]
// external memory and drive[s] ICAP" — the partial bitstreams live in a
// memory next to the FPGA. This models that memory: bitstream contents by
// module name, plus the access-time model for streaming one out.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace pdr::rtr {

class BitstreamStore {
 public:
  /// `bandwidth_bytes_per_s`: sustained streaming rate of the memory;
  /// `access_latency`: fixed address-setup cost per stream.
  BitstreamStore(double bandwidth_bytes_per_s, TimeNs access_latency);

  /// Registers a module's partial bitstream. Re-registering replaces it.
  void add(const std::string& module, std::vector<std::uint8_t> bitstream);

  /// Damages one byte of a stored image in place — an external-memory
  /// fault, with the CRC record as likely a victim as any payload word.
  /// Every later get()/fetch returns the damaged image until add()
  /// re-registers a clean copy. `xor_mask` must flip at least one bit.
  void corrupt(const std::string& module, std::size_t byte_index, std::uint8_t xor_mask = 0xFF);

  /// Restores a module's pristine image (the bytes originally add()ed),
  /// undoing any corrupt() damage — the model of an operator re-flashing
  /// external memory from a golden copy. No-op on an undamaged module.
  void repair(const std::string& module);

  /// Version of a module's current image: a store-wide counter value,
  /// renewed whenever the bytes change (add(), corrupt(), and a repair()
  /// that restores bytes), never reused. A reader that checked the image
  /// at version v may trust bytes still at version v without checking them
  /// again.
  std::uint64_t version(const std::string& module) const;

  /// Number of bytes ever damaged through corrupt().
  int corruptions() const { return corruptions_; }

  /// Number of damaged images restored through repair().
  int repairs() const { return repairs_; }

  bool contains(const std::string& module) const;
  std::span<const std::uint8_t> get(const std::string& module) const;
  Bytes size_of(const std::string& module) const;

  /// Time to stream a module's bitstream out of this memory.
  TimeNs fetch_time(const std::string& module) const;

  double bandwidth_bytes_per_s() const { return bandwidth_; }
  TimeNs access_latency() const { return latency_; }
  std::size_t count() const { return streams_.size(); }
  Bytes total_bytes() const;

 private:
  double bandwidth_;
  TimeNs latency_;
  struct Image {
    std::vector<std::uint8_t> bytes;
    std::vector<std::uint8_t> pristine;  ///< golden copy of the last add(): what repair() restores
    std::uint64_t version = 0;
  };

  /// The module's image; throws pdr::Error (from `where`) if unknown.
  const Image& image(const std::string& module, const char* where) const;
  Image& image(const std::string& module, const char* where);

  std::map<std::string, Image> streams_;
  std::uint64_t last_version_ = 0;
  int corruptions_ = 0;
  int repairs_ = 0;
};

}  // namespace pdr::rtr
