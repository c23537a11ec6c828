#include "fabric/frames.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdr::fabric {

const char* block_type_name(BlockType t) {
  switch (t) {
    case BlockType::Clb: return "CLB";
    case BlockType::BramContent: return "BRAM";
    case BlockType::BramInterconnect: return "BRAM_INT";
  }
  return "?";
}

std::uint32_t FrameAddress::encode() const {
  return (static_cast<std::uint32_t>(block) << 24) | (static_cast<std::uint32_t>(major) << 8) |
         static_cast<std::uint32_t>(minor);
}

FrameAddress FrameAddress::decode(std::uint32_t far) {
  const auto block_raw = (far >> 24) & 0x3u;
  PDR_CHECK(block_raw <= 2, "FrameAddress::decode", "unknown block type in FAR");
  FrameAddress a;
  a.block = static_cast<BlockType>(block_raw);
  a.major = static_cast<std::uint16_t>((far >> 8) & 0xffffu);
  a.minor = static_cast<std::uint16_t>(far & 0xffu);
  return a;
}

std::string FrameAddress::to_string() const {
  return strprintf("%s[%u].%u", block_type_name(block), static_cast<unsigned>(major),
                   static_cast<unsigned>(minor));
}

FrameMap::FrameMap(const DeviceModel& device) : device_(device) {
  PDR_CHECK(device_.clb_cols > 0 && device_.clb_rows > 0, "FrameMap", "empty device");
}

int FrameMap::frames_in_column(BlockType block) const {
  switch (block) {
    case BlockType::Clb: return device_.frames_per_clb_col;
    case BlockType::BramContent: return device_.frames_per_bram_col;
    case BlockType::BramInterconnect: return device_.frames_per_bram_int_col;
  }
  return 0;
}

int FrameMap::columns(BlockType block) const {
  return block == BlockType::Clb ? device_.clb_cols : device_.bram_cols;
}

int FrameMap::linear_index(const FrameAddress& addr) const {
  PDR_CHECK(valid(addr), "FrameMap::linear_index", "invalid frame address " + addr.to_string());
  const int clb_total = device_.clb_cols * device_.frames_per_clb_col;
  const int bram_total = device_.bram_cols * device_.frames_per_bram_col;
  switch (addr.block) {
    case BlockType::Clb:
      return addr.major * device_.frames_per_clb_col + addr.minor;
    case BlockType::BramContent:
      return clb_total + addr.major * device_.frames_per_bram_col + addr.minor;
    case BlockType::BramInterconnect:
      return clb_total + bram_total + addr.major * device_.frames_per_bram_int_col + addr.minor;
  }
  return -1;
}

FrameAddress FrameMap::from_linear(int index) const {
  PDR_CHECK(index >= 0 && index < total_frames(), "FrameMap::from_linear", "index out of range");
  const int clb_total = device_.clb_cols * device_.frames_per_clb_col;
  const int bram_total = device_.bram_cols * device_.frames_per_bram_col;
  FrameAddress a;
  if (index < clb_total) {
    a.block = BlockType::Clb;
    a.major = static_cast<std::uint16_t>(index / device_.frames_per_clb_col);
    a.minor = static_cast<std::uint16_t>(index % device_.frames_per_clb_col);
  } else if (index < clb_total + bram_total) {
    const int i = index - clb_total;
    a.block = BlockType::BramContent;
    a.major = static_cast<std::uint16_t>(i / device_.frames_per_bram_col);
    a.minor = static_cast<std::uint16_t>(i % device_.frames_per_bram_col);
  } else {
    const int i = index - clb_total - bram_total;
    a.block = BlockType::BramInterconnect;
    a.major = static_cast<std::uint16_t>(i / device_.frames_per_bram_int_col);
    a.minor = static_cast<std::uint16_t>(i % device_.frames_per_bram_int_col);
  }
  return a;
}

bool FrameMap::valid(const FrameAddress& addr) const {
  return addr.major < columns(addr.block) && addr.minor < frames_in_column(addr.block);
}

std::vector<FrameAddress> FrameMap::clb_column_frames(int clb_col) const {
  PDR_CHECK(clb_col >= 0 && clb_col < device_.clb_cols, "FrameMap::clb_column_frames",
            "CLB column out of range");
  std::vector<FrameAddress> out;
  out.reserve(static_cast<std::size_t>(device_.frames_per_clb_col));
  for (int minor = 0; minor < device_.frames_per_clb_col; ++minor)
    out.push_back(FrameAddress{BlockType::Clb, static_cast<std::uint16_t>(clb_col),
                               static_cast<std::uint16_t>(minor)});
  return out;
}

std::vector<int> FrameMap::bram_positions() const {
  std::vector<int> out;
  if (device_.bram_cols == 0) return out;
  // Spread evenly: BRAM column b sits after CLB column
  // round((b+1) * clb_cols / (bram_cols+1)) - 1.
  for (int b = 0; b < device_.bram_cols; ++b) {
    const int pos = ((b + 1) * device_.clb_cols) / (device_.bram_cols + 1) - 1;
    out.push_back(pos);
  }
  return out;
}

std::vector<FrameAddress> FrameMap::frames_for_clb_range(int col_lo, int col_hi) const {
  PDR_CHECK(0 <= col_lo && col_lo <= col_hi && col_hi < device_.clb_cols,
            "FrameMap::frames_for_clb_range", "bad CLB column range");
  std::vector<FrameAddress> out;
  out.reserve(static_cast<std::size_t>((col_hi - col_lo + 1) * device_.frames_per_clb_col));
  for (int c = col_lo; c <= col_hi; ++c)
    for (int minor = 0; minor < device_.frames_per_clb_col; ++minor)
      out.push_back(FrameAddress{BlockType::Clb, static_cast<std::uint16_t>(c),
                                 static_cast<std::uint16_t>(minor)});
  const auto brams = bram_positions();
  for (std::size_t b = 0; b < brams.size(); ++b) {
    if (brams[b] >= col_lo && brams[b] < col_hi) {
      for (int minor = 0; minor < device_.frames_per_bram_col; ++minor)
        out.push_back(FrameAddress{BlockType::BramContent, static_cast<std::uint16_t>(b),
                                   static_cast<std::uint16_t>(minor)});
      for (int minor = 0; minor < device_.frames_per_bram_int_col; ++minor)
        out.push_back(FrameAddress{BlockType::BramInterconnect, static_cast<std::uint16_t>(b),
                                   static_cast<std::uint16_t>(minor)});
    }
  }
  return out;
}

}  // namespace pdr::fabric
