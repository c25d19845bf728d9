// Minimal INI-style configuration files for examples and experiment
// harnesses:
//
//   # comment
//   [scenario]
//   num_olevs = 50
//   velocity_mph = 60
//   pricing = nonlinear
//
// Sections are optional; keys before any section header live in the ""
// section.  Values are strings with typed accessors; unknown keys are
// enumerable so harnesses can reject typos.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace olev::util {

class Config {
 public:
  Config() = default;

  /// Parses INI text; throws std::runtime_error with a line number on
  /// malformed input (unterminated section header, missing '=').
  static Config parse(const std::string& text);
  /// Loads and parses a file; throws std::runtime_error if unreadable.
  static Config load(const std::string& path);

  bool has(const std::string& section, const std::string& key) const;

  /// Raw string lookup.
  std::optional<std::string> get(const std::string& section,
                                 const std::string& key) const;

  // Typed accessors with defaults; throw std::runtime_error when the value
  // exists but does not parse as the requested type.
  std::string get_string(const std::string& section, const std::string& key,
                         const std::string& fallback) const;
  double get_double(const std::string& section, const std::string& key,
                    double fallback) const;
  std::int64_t get_int(const std::string& section, const std::string& key,
                       std::int64_t fallback) const;
  bool get_bool(const std::string& section, const std::string& key,
                bool fallback) const;

  void set(const std::string& section, const std::string& key,
           const std::string& value);

  /// All keys of a section, in insertion order.
  std::vector<std::string> keys(const std::string& section) const;
  /// All section names that hold at least one key.
  std::vector<std::string> sections() const;

 private:
  // section -> ordered (key, value) pairs.
  std::map<std::string, std::vector<std::pair<std::string, std::string>>> data_;
};

/// Trims ASCII whitespace from both ends.
std::string trim(const std::string& text);

// Whole-string number parsing, shared by Config's typed accessors and the
// command-line tools' flags.  The whole text must be one number: an empty
// string, trailing characters, or a value out of range for the result type
// gives nullopt instead of a truncated, saturated or wrapped value.
std::optional<double> parse_double(const std::string& text);
std::optional<std::int64_t> parse_int(const std::string& text);
/// Unsigned, in `base` (16 also accepts a 0x prefix).  A sign or leading
/// whitespace is rejected, and so is a value above `max`.
std::optional<std::uint64_t> parse_uint(
    const std::string& text,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max(),
    int base = 10);

}  // namespace olev::util
