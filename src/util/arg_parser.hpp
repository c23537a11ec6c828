// Shared command-line argument parser for `pdrflow <command>` and the
// bench binaries.
//
// Parsing is strict: every `--flag` must be declared in the command's
// spec — unknown flags and missing values are errors, not silently
// skipped; everything else is a positional. Values parse strictly too:
// "12abc" is an error for an integer flag, not 12.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace pdr::util {

/// One flag a command accepts.
struct FlagSpec {
  const char* name;  ///< "--out"
  bool takes_value;  ///< consumes the following argv entry
};

class ArgParser {
 public:
  /// Parses all of argv[0..argc); throws pdr::Error on any unknown flag,
  /// missing flag value, or positional-count mismatch.
  ArgParser(const char* command, int argc, char** argv, std::initializer_list<FlagSpec> specs,
            std::size_t positionals_required);

  bool has(const char* name) const { return find(name) != nullptr; }

  /// Value of a value-taking flag, or nullptr if absent.
  const std::string* value(const char* name) const { return find(name); }

  /// Value of a value-taking flag, or `fallback` if absent.
  std::string string_or(const char* name, const std::string& fallback) const;

  const std::string& positional(std::size_t i) const { return positionals_.at(i); }
  std::size_t positional_count() const { return positionals_.size(); }

  /// Strictly-parsed unsigned integer flag ("12abc" is an error, not 12).
  std::uint64_t uint_or(const char* name, std::uint64_t fallback) const;

  /// Strictly-parsed floating-point flag.
  double double_or(const char* name, double fallback) const;

  /// Comma-separated list value ("a,b,c"); `fallback` when absent.
  std::vector<std::string> list_or(const char* name, std::vector<std::string> fallback) const;

 private:
  const std::string* find(const char* name) const;
  std::string valid_flags() const;
  const FlagSpec* spec_of(const std::string& arg) const;

  std::string command_;
  std::vector<FlagSpec> specs_;
  std::vector<std::string> positionals_;
  std::vector<std::pair<std::string, std::string>> values_;
};

}  // namespace pdr::util
