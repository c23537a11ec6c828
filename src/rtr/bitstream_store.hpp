// External bitstream memory.
//
// In the paper's implementation the protocol builder "address[es]
// external memory and drive[s] ICAP" — the partial bitstreams live in a
// memory next to the FPGA. This models that memory: one
// fabric::ValidatedStream per module name, plus the access-time model for
// streaming one out. An image hands out its handle while intact.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fabric/bitstream.hpp"
#include "util/units.hpp"

namespace pdr::rtr {

class BitstreamStore {
 public:
  /// `bandwidth_bytes_per_s`: sustained streaming rate of the memory;
  /// `access_latency`: fixed address-setup cost per stream.
  BitstreamStore(double bandwidth_bytes_per_s, TimeNs access_latency);

  /// Registers a module's validated image. The handle is shared, never
  /// copied: every manager on this store loads it with no further parse.
  /// Re-registering replaces the image.
  void add(const std::string& module, std::shared_ptr<const fabric::ValidatedStream> image);

  /// Damages one byte of a stored image — an external-memory fault, with
  /// the CRC record as likely a victim as any payload word. The damage
  /// goes to a private copy, never through the registered (shared) bytes;
  /// every later get() returns that copy, with no handle, until repair()
  /// or add(). `xor_mask` must flip at least one bit.
  void corrupt(const std::string& module, std::size_t byte_index, std::uint8_t xor_mask = 0xFF);

  /// Restores a module's pristine image (the last add()), handle included,
  /// undoing any corrupt() damage — the model of an operator re-flashing
  /// external memory from a golden copy. No-op on an undamaged module.
  void repair(const std::string& module);

  /// The handle of a module's current image: null while the image is
  /// damaged.
  std::shared_ptr<const fabric::ValidatedStream> validated(const std::string& module) const;

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
    std::shared_ptr<const fabric::ValidatedStream> validated;  ///< the last add()
    std::vector<std::uint8_t> damaged;  ///< corrupt()'s private copy; empty while intact

    /// What a fetch reads: the damaged copy, if any, else the handle's bytes.
    std::span<const std::uint8_t> current() const {
      return damaged.empty() ? validated->bytes() : std::span<const std::uint8_t>(damaged);
    }
  };

  /// The module's image; throws pdr::Error (from `where`) if unknown.
  const Image& image(const std::string& module, const char* where) const;
  Image& image(const std::string& module, const char* where);

  std::map<std::string, Image> streams_;
  int corruptions_ = 0;
  int repairs_ = 0;
};

}  // namespace pdr::rtr
