#include "rtr/bitstream_store.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace pdr::rtr {

BitstreamStore::BitstreamStore(double bandwidth_bytes_per_s, TimeNs access_latency)
    : bandwidth_(bandwidth_bytes_per_s), latency_(access_latency) {
  PDR_CHECK(bandwidth_ > 0, "BitstreamStore", "bandwidth must be positive");
  PDR_CHECK(latency_ >= 0, "BitstreamStore", "latency must be non-negative");
}

void BitstreamStore::add(const std::string& module,
                         std::shared_ptr<const fabric::ValidatedStream> image) {
  PDR_CHECK(!module.empty(), "BitstreamStore::add", "module name must not be empty");
  PDR_CHECK(image != nullptr, "BitstreamStore::add", "no stream for '" + module + "'");
  streams_[module] = Image{std::move(image), {}};
}

const BitstreamStore::Image& BitstreamStore::image(const std::string& module,
                                                   const char* where) const {
  const auto it = streams_.find(module);
  PDR_CHECK(it != streams_.end(), where, "no bitstream for module '" + module + "'");
  return it->second;
}

BitstreamStore::Image& BitstreamStore::image(const std::string& module, const char* where) {
  return const_cast<Image&>(std::as_const(*this).image(module, where));
}

void BitstreamStore::corrupt(const std::string& module, std::size_t byte_index,
                             std::uint8_t xor_mask) {
  Image& img = image(module, "BitstreamStore::corrupt");
  const std::span<const std::uint8_t> original = img.validated->bytes();
  PDR_CHECK(byte_index < original.size(), "BitstreamStore::corrupt",
            "byte index out of range for '" + module + "'");
  PDR_CHECK(xor_mask != 0, "BitstreamStore::corrupt", "xor mask must flip at least one bit");
  if (img.damaged.empty()) img.damaged.assign(original.begin(), original.end());
  img.damaged[byte_index] ^= xor_mask;
  ++corruptions_;
}

void BitstreamStore::repair(const std::string& module) {
  Image& img = image(module, "BitstreamStore::repair");
  // Damage that cancelled itself out left the pristine bytes: not a repair.
  if (!img.damaged.empty() && !std::ranges::equal(img.damaged, img.validated->bytes())) ++repairs_;
  img.damaged.clear();
}

bool BitstreamStore::contains(const std::string& module) const { return streams_.count(module) > 0; }

std::span<const std::uint8_t> BitstreamStore::get(const std::string& module) const {
  return image(module, "BitstreamStore::get").current();
}

std::shared_ptr<const fabric::ValidatedStream> BitstreamStore::validated(
    const std::string& module) const {
  const Image& img = image(module, "BitstreamStore::validated");
  return img.damaged.empty() ? img.validated : nullptr;
}

Bytes BitstreamStore::size_of(const std::string& module) const { return get(module).size(); }

TimeNs BitstreamStore::fetch_time(const std::string& module) const {
  return latency_ + transfer_time_ns(size_of(module), bandwidth_);
}

Bytes BitstreamStore::total_bytes() const {
  Bytes total = 0;
  for (const auto& [name, img] : streams_) total += img.current().size();
  return total;
}

}  // namespace pdr::rtr
