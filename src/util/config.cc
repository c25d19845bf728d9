#include "util/config.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace olev::util {

std::string trim(const std::string& text) {
  auto begin = text.begin();
  auto end = text.end();
  while (begin != end && std::isspace(static_cast<unsigned char>(*begin))) ++begin;
  while (end != begin && std::isspace(static_cast<unsigned char>(*(end - 1)))) --end;
  return std::string(begin, end);
}

namespace {

// strto* leaves `end` where parsing stopped and sets ERANGE on overflow.
bool whole_and_in_range(const std::string& text, const char* end) {
  return !text.empty() && end == text.c_str() + text.size() && errno != ERANGE;
}

}  // namespace

std::optional<double> parse_double(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (!whole_and_in_range(text, end)) return std::nullopt;
  return value;
}

std::optional<std::int64_t> parse_int(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (!whole_and_in_range(text, end)) return std::nullopt;
  return static_cast<std::int64_t>(value);
}

std::optional<std::uint64_t> parse_uint(const std::string& text,
                                        std::uint64_t max, int base) {
  // strtoull skips whitespace and negates a '-' value; refuse both here.
  if (text.empty() || !std::isxdigit(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, base);
  if (!whole_and_in_range(text, end) || value > max) return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

Config Config::parse(const std::string& text) {
  Config config;
  std::istringstream in(text);
  std::string line;
  std::string section;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#' || stripped[0] == ';') continue;
    if (stripped.front() == '[') {
      if (stripped.back() != ']' || stripped.size() < 3) {
        throw std::runtime_error("Config: malformed section header at line " +
                                 std::to_string(line_number));
      }
      section = trim(stripped.substr(1, stripped.size() - 2));
      continue;
    }
    const auto eq = stripped.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("Config: missing '=' at line " +
                               std::to_string(line_number));
    }
    const std::string key = trim(stripped.substr(0, eq));
    if (key.empty()) {
      throw std::runtime_error("Config: empty key at line " +
                               std::to_string(line_number));
    }
    config.set(section, key, trim(stripped.substr(eq + 1)));
  }
  return config;
}

Config Config::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Config: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

void Config::set(const std::string& section, const std::string& key,
                 const std::string& value) {
  auto& entries = data_[section];
  for (auto& [existing_key, existing_value] : entries) {
    if (existing_key == key) {
      existing_value = value;  // last assignment wins
      return;
    }
  }
  entries.emplace_back(key, value);
}

bool Config::has(const std::string& section, const std::string& key) const {
  return get(section, key).has_value();
}

std::optional<std::string> Config::get(const std::string& section,
                                       const std::string& key) const {
  const auto it = data_.find(section);
  if (it == data_.end()) return std::nullopt;
  for (const auto& [existing_key, value] : it->second) {
    if (existing_key == key) return value;
  }
  return std::nullopt;
}

std::string Config::get_string(const std::string& section, const std::string& key,
                               const std::string& fallback) const {
  return get(section, key).value_or(fallback);
}

double Config::get_double(const std::string& section, const std::string& key,
                          double fallback) const {
  const auto value = get(section, key);
  if (!value) return fallback;
  if (const auto parsed = parse_double(*value)) return *parsed;
  throw std::runtime_error("Config: [" + section + "] " + key +
                           " is not a number: '" + *value + "'");
}

std::int64_t Config::get_int(const std::string& section, const std::string& key,
                             std::int64_t fallback) const {
  const auto value = get(section, key);
  if (!value) return fallback;
  if (const auto parsed = parse_int(*value)) return *parsed;
  throw std::runtime_error("Config: [" + section + "] " + key +
                           " is not an integer: '" + *value + "'");
}

bool Config::get_bool(const std::string& section, const std::string& key,
                      bool fallback) const {
  const auto value = get(section, key);
  if (!value) return fallback;
  std::string lowered = *value;
  std::transform(lowered.begin(), lowered.end(), lowered.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lowered == "true" || lowered == "1" || lowered == "yes" || lowered == "on") {
    return true;
  }
  if (lowered == "false" || lowered == "0" || lowered == "no" || lowered == "off") {
    return false;
  }
  throw std::runtime_error("Config: [" + section + "] " + key +
                           " is not a boolean: '" + *value + "'");
}

std::vector<std::string> Config::keys(const std::string& section) const {
  std::vector<std::string> out;
  const auto it = data_.find(section);
  if (it == data_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [key, value] : it->second) out.push_back(key);
  return out;
}

std::vector<std::string> Config::sections() const {
  std::vector<std::string> out;
  out.reserve(data_.size());
  for (const auto& [section, entries] : data_) {
    if (!entries.empty()) out.push_back(section);
  }
  return out;
}

}  // namespace olev::util
