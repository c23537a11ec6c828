#include "fabric/relocate.hpp"

#include <map>

#include "util/error.hpp"

namespace pdr::fabric {

bool regions_congruent(const Floorplan& plan, const std::string& from, const std::string& to) {
  const Region& a = plan.region(from);
  const Region& b = plan.region(to);
  if (a.width_cols() != b.width_cols()) return false;
  // Frame layout must match: same block-type sequence relative to the
  // region origin (BRAM columns interleave at device-dependent spots).
  const auto& fa = plan.region_frames(from);
  const auto& fb = plan.region_frames(to);
  if (fa.size() != fb.size()) return false;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    if (fa[i].block != fb[i].block || fa[i].minor != fb[i].minor) return false;
    // Column offsets relative to the region origin must match for CLB
    // frames; BRAM columns have their own numbering checked via ordering.
    if (fa[i].block == BlockType::Clb &&
        fa[i].major - a.col_lo != fb[i].major - b.col_lo)
      return false;
  }
  return true;
}

std::vector<std::uint8_t> relocate_bitstream(const Floorplan& plan,
                                             std::span<const std::uint8_t> stream,
                                             const std::string& from, const std::string& to) {
  PDR_CHECK(regions_congruent(plan, from, to), "relocate_bitstream",
            "regions '" + from + "' and '" + to + "' are not congruent");
  const DeviceModel& device = plan.device();

  // Build the frame-address translation from the congruent frame lists.
  const auto& fa = plan.region_frames(from);
  const auto& fb = plan.region_frames(to);
  std::map<std::uint32_t, FrameAddress> translate;
  for (std::size_t i = 0; i < fa.size(); ++i) translate[fa[i].encode()] = fb[i];

  // Capture every frame of the source stream (validating it fully).
  struct CaptureSink : BitstreamReader::Sink {
    std::vector<std::pair<FrameAddress, std::vector<std::uint8_t>>> frames;
    void write_frame(const FrameAddress& addr, std::span<const std::uint8_t> data) override {
      frames.emplace_back(addr, std::vector<std::uint8_t>(data.begin(), data.end()));
    }
  } sink;
  BitstreamReader(device, sink).parse(stream);

  // Re-emit against the target region, coalescing consecutive frames.
  const FrameMap map(device);
  BitstreamWriter writer(device);
  writer.begin();
  writer.write_idcode();
  std::size_t i = 0;
  while (i < sink.frames.size()) {
    const auto it = translate.find(sink.frames[i].first.encode());
    PDR_CHECK(it != translate.end(), "relocate_bitstream",
              "stream writes frame " + sink.frames[i].first.to_string() + " outside region '" +
                  from + "'");
    std::size_t j = i;
    // Extend the run while both source and target stay linearly consecutive.
    while (j + 1 < sink.frames.size()) {
      const auto next_it = translate.find(sink.frames[j + 1].first.encode());
      if (next_it == translate.end()) break;
      if (map.linear_index(sink.frames[j + 1].first) !=
              map.linear_index(sink.frames[j].first) + 1 ||
          map.linear_index(next_it->second) != map.linear_index(translate.at(
                                                   sink.frames[j].first.encode())) + 1)
        break;
      ++j;
    }
    writer.write_far(it->second);
    std::vector<std::uint8_t> burst;
    for (std::size_t k = i; k <= j; ++k)
      burst.insert(burst.end(), sink.frames[k].second.begin(), sink.frames[k].second.end());
    writer.write_fdri(burst);
    i = j + 1;
  }
  writer.end();
  return writer.take();
}

}  // namespace pdr::fabric
