// Append-only text writer for the per-item lines of generated artifacts.
//
// The executive text, the m4 bodies, the VHDL/C sequencers and the
// schedule's CSV/text exports write one line per instruction or item,
// hundreds of thousands of lines for a large schedule. A TextWriter
// appends straight into the caller's std::string: integers go through
// std::to_chars, fixed-precision doubles through the floating-point
// std::to_chars (correctly rounded, ties to even, as glibc's printf
// rounds), padding is a fill append, and no format string is parsed and
// no temporary string is built per field. strprintf stays for one-off
// header lines.
#pragma once

#include <charconv>
#include <cstddef>
#include <string>
#include <string_view>
#include <type_traits>

namespace pdr {

/// Appends `name` sanitized into a VHDL/C identifier: every byte that is
/// not an ASCII letter, digit or '_' becomes '_', and an 'x' is
/// prepended when the result would be empty or start with a digit.
void append_identifier(std::string& out, std::string_view name);

class TextWriter {
 public:
  explicit TextWriter(std::string& out) : out_(&out) {}

  TextWriter& operator<<(std::string_view s) {
    out_->append(s);
    return *this;
  }
  TextWriter& operator<<(char c) {
    out_->push_back(c);
    return *this;
  }
  /// Decimal integer, as printf's %d / %lld / %llu.
  template <typename Int, std::enable_if_t<std::is_integral_v<Int> && !std::is_same_v<Int, char> &&
                                               !std::is_same_v<Int, bool>,
                                           int> = 0>
  TextWriter& operator<<(Int v) {
    char buf[24];
    const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    out_->append(buf, static_cast<std::size_t>(end - buf));
    return *this;
  }

  /// `v` with `precision` digits after the point, right-aligned in
  /// `width` columns: printf's "%<width>.<precision>f". `precision` is at
  /// most 64.
  TextWriter& fixed(double v, int precision, std::size_t width = 0);

  /// `s` left-aligned in `width` columns: printf's "%-<width>s".
  TextWriter& left(std::string_view s, std::size_t width) {
    out_->append(s);
    if (s.size() < width) out_->append(width - s.size(), ' ');
    return *this;
  }

  /// `name` sanitized by append_identifier.
  TextWriter& identifier(std::string_view name) {
    append_identifier(*out_, name);
    return *this;
  }

 private:
  std::string* out_;
};

}  // namespace pdr
