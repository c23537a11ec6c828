#include "fabric/context.hpp"

#include "util/error.hpp"

namespace pdr::fabric {

std::vector<std::uint8_t> snapshot_region(const ConfigMemory& memory, const Floorplan& plan,
                                          const std::string& region_name) {
  const auto& frames = plan.region_frames(region_name);
  PDR_CHECK(!frames.empty(), "snapshot_region", "region has no frames");
  const DeviceModel& device = memory.device();
  const FrameMap map(device);

  BitstreamWriter writer(device);
  writer.begin();
  writer.write_idcode();
  std::size_t i = 0;
  while (i < frames.size()) {
    std::size_t j = i;
    while (j + 1 < frames.size() &&
           map.linear_index(frames[j + 1]) == map.linear_index(frames[j]) + 1)
      ++j;
    writer.write_far(frames[i]);
    std::vector<std::uint8_t> burst;
    burst.reserve((j - i + 1) * static_cast<std::size_t>(device.frame_bytes()));
    for (std::size_t k = i; k <= j; ++k) {
      const auto data = memory.read_frame(frames[k]);
      burst.insert(burst.end(), data.begin(), data.end());
    }
    writer.write_fdri(burst);
    i = j + 1;
  }
  writer.end();
  return writer.take();
}

int restore_region(ConfigMemory& memory, const Floorplan& plan, const std::string& region_name,
                   std::span<const std::uint8_t> snapshot, const std::string& tag) {
  const auto& frames = plan.region_frames(region_name);
  memory.set_writer_tag(tag);
  BitstreamReader reader(memory.device(), memory);
  const ParseResult parsed = reader.parse(snapshot);
  PDR_CHECK(parsed.frames_written == static_cast<int>(frames.size()), "restore_region",
            "snapshot does not cover exactly the region's frames");
  for (std::size_t k = 0; k < frames.size(); ++k)
    PDR_CHECK(parsed.touched[k] == frames[k], "restore_region",
              "snapshot frame order does not match region '" + region_name + "'");
  return parsed.frames_written;
}

}  // namespace pdr::fabric
