#include "util/arg_parser.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdr::util {

namespace {

[[noreturn]] void fail(const std::string& message) { throw Error(message); }

}  // namespace

ArgParser::ArgParser(const char* command, int argc, char** argv,
                     std::initializer_list<FlagSpec> specs, std::size_t positionals_required)
    : command_(command), specs_(specs) {
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(arg);
      continue;
    }
    const FlagSpec* spec = spec_of(arg);
    if (spec == nullptr)
      fail("unknown flag '" + arg + "' for '" + command_ + "'" + valid_flags());
    if (spec->takes_value) {
      if (i + 1 >= argc) fail(std::string("flag '") + spec->name + "' needs a value");
      values_.emplace_back(spec->name, argv[++i]);
    } else {
      values_.emplace_back(spec->name, "");
    }
  }
  if (positionals_.size() != positionals_required)
    fail(strprintf("'%s' takes %zu positional argument(s), got %zu", command_.c_str(),
                   positionals_required, positionals_.size()));
}

std::string ArgParser::string_or(const char* name, const std::string& fallback) const {
  const std::string* v = find(name);
  return v == nullptr ? fallback : *v;
}

std::uint64_t ArgParser::uint_or(const char* name, std::uint64_t fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(v->c_str(), &end, 10);
  if (errno != 0 || end == v->c_str() || *end != '\0')
    fail(std::string("flag '") + name + "' needs an unsigned integer, got '" + *v + "'");
  return parsed;
}

double ArgParser::double_or(const char* name, double fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v->c_str(), &end);
  if (errno != 0 || end == v->c_str() || *end != '\0')
    fail(std::string("flag '") + name + "' needs a number, got '" + *v + "'");
  return parsed;
}

std::vector<std::string> ArgParser::list_or(const char* name,
                                            std::vector<std::string> fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= v->size()) {
    const std::size_t comma = v->find(',', start);
    const std::string item = v->substr(start, comma == std::string::npos ? comma : comma - start);
    if (item.empty())
      fail(std::string("flag '") + name + "' has an empty list element in '" + *v + "'");
    out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

const std::string* ArgParser::find(const char* name) const {
  for (const auto& [flag, value] : values_)
    if (flag == name) return &value;
  return nullptr;
}

const FlagSpec* ArgParser::spec_of(const std::string& arg) const {
  for (const FlagSpec& s : specs_)
    if (arg == s.name) return &s;
  return nullptr;
}

std::string ArgParser::valid_flags() const {
  if (specs_.empty()) return "; it takes no flags";
  std::string out = "; valid flags:";
  for (const FlagSpec& s : specs_) out += std::string(" ") + s.name;
  return out;
}

}  // namespace pdr::util
