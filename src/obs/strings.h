// String helpers shared by every exporter in the repo, kept dependency-free
// (obs links only olev_sync) so each layer can serialize through them:
// json_escape, format_double, and JsonWriter -- the one JSON writer that
// builds the metrics, flight and trace dumps, the admin replies, the
// loadgen and replay reports, and core's result traces.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace olev::obs {

/// Escapes `text` for embedding inside a JSON string literal (surrounding
/// quotes not included).  Guarantees pure-ASCII, always-valid JSON output
/// for ANY byte sequence:
///   - '"', '\\' and the C0 control characters are backslash-escaped
///     (\n, \r, \t, \b, \f get their short forms, the rest \u00XX);
///   - DEL (0x7f) and every non-ASCII code point are emitted as \uXXXX,
///     decoding well-formed UTF-8 first (astral code points become
///     surrogate pairs);
///   - malformed UTF-8 bytes (stray continuation bytes, overlong or
///     truncated sequences, surrogates) are replaced with U+FFFD instead of
///     leaking raw bytes into the output.
std::string json_escape(std::string_view text);

/// Shortest decimal that std::strtod reads back to the same double
/// (std::to_chars), with NaN/Inf mapped to null (JSON has no non-finite
/// literals).  Integral values below 2^53 print as plain integers
/// ("100000", not "1e+05").
std::string format_double(double v);

/// Streaming JSON writer (no DOM): compact `"key":value` output with no
/// whitespace, keys in call order.  Strings go through json_escape and
/// doubles through format_double, so every document is parseable whatever
/// bytes its labels carry.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  /// Starts a key inside an object; follow with a value or a container.
  JsonWriter& key(std::string_view name);
  JsonWriter& value(double v);
  JsonWriter& value(bool v);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  /// Any integer type prints exactly.  bool has its own overload, and a
  /// char does not compile (it would print as a number, not as text).
  template <std::integral T>
    requires(!std::same_as<T, bool> && !std::same_as<T, char>)
  JsonWriter& value(T v) {
    if constexpr (std::is_signed_v<T>) {
      return integer(static_cast<std::int64_t>(v));
    } else {
      return integer(static_cast<std::uint64_t>(v));
    }
  }
  /// Numeric array in one call.
  JsonWriter& value(std::span<const double> values);
  JsonWriter& null();

  const std::string& str() const& { return out_; }
  std::string str() && { return std::move(out_); }

 private:
  void separator();
  JsonWriter& integer(std::int64_t v);
  JsonWriter& integer(std::uint64_t v);

  std::string out_;
  // Context stack: 'o' = object awaiting key, 'v' = object awaiting value,
  // 'a' = array.  first_ tracks whether a comma is needed.
  std::vector<char> stack_;
  std::vector<bool> first_;
};

/// Writes `content` to `path`, throwing std::runtime_error that names the
/// failing path and the errno message on open or write failure.
void write_file(const std::string& path, std::string_view content);

}  // namespace olev::obs
