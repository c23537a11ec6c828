#include "util/text_writer.hpp"

namespace pdr {

void append_identifier(std::string& out, std::string_view name) {
  const bool prefix = name.empty() || (name.front() >= '0' && name.front() <= '9');
  std::size_t at = out.size();
  out.resize(at + name.size() + (prefix ? 1 : 0));
  if (prefix) out[at++] = 'x';
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '_';
    out[at++] = ok ? c : '_';
  }
}

TextWriter& TextWriter::fixed(double v, int precision, std::size_t width) {
  // DBL_MAX has 309 integer digits; add sign, point and the fraction.
  char buf[400];
  const auto end =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, precision).ptr;
  const auto n = static_cast<std::size_t>(end - buf);
  if (n < width) out_->append(width - n, ' ');
  out_->append(buf, n);
  return *this;
}

}  // namespace pdr
