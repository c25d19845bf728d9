#include "obs/strings.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace olev::obs {

namespace {

void append_u16(std::string& out, std::uint32_t unit) {
  char buffer[8];
  std::snprintf(buffer, sizeof(buffer), "\\u%04x", unit & 0xffffu);
  out += buffer;
}

void append_code_point(std::string& out, std::uint32_t cp) {
  if (cp <= 0xffffu) {
    append_u16(out, cp);
  } else {
    // Astral plane: UTF-16 surrogate pair.
    cp -= 0x10000u;
    append_u16(out, 0xd800u + (cp >> 10));
    append_u16(out, 0xdc00u + (cp & 0x3ffu));
  }
}

constexpr std::uint32_t kReplacement = 0xfffdu;

/// Decodes one UTF-8 sequence starting at `i`; advances `i` past it.
/// Returns U+FFFD (consuming exactly one byte) on any malformation.
std::uint32_t decode_utf8(std::string_view text, std::size_t& i) {
  const auto byte = [&](std::size_t k) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(text[k]));
  };
  const std::uint32_t lead = byte(i);
  std::size_t length;
  std::uint32_t cp;
  if (lead < 0xc0u) {  // stray continuation byte (>= 0x80 guaranteed by caller)
    ++i;
    return kReplacement;
  } else if (lead < 0xe0u) {
    length = 2;
    cp = lead & 0x1fu;
  } else if (lead < 0xf0u) {
    length = 3;
    cp = lead & 0x0fu;
  } else if (lead < 0xf8u) {
    length = 4;
    cp = lead & 0x07u;
  } else {
    ++i;
    return kReplacement;
  }
  if (i + length > text.size()) {
    ++i;
    return kReplacement;
  }
  for (std::size_t k = 1; k < length; ++k) {
    const std::uint32_t continuation = byte(i + k);
    if ((continuation & 0xc0u) != 0x80u) {
      ++i;
      return kReplacement;
    }
    cp = (cp << 6) | (continuation & 0x3fu);
  }
  // Reject overlong encodings, UTF-16 surrogates and out-of-range values.
  constexpr std::uint32_t kMinByLength[5] = {0, 0, 0x80u, 0x800u, 0x10000u};
  if (cp < kMinByLength[length] || cp > 0x10ffffu ||
      (cp >= 0xd800u && cp <= 0xdfffu)) {
    ++i;
    return kReplacement;
  }
  i += length;
  return cp;
}

void append_escaped(std::string& out, std::string_view text) {
  std::size_t i = 0;
  while (i < text.size()) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c < 0x80u) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        default:
          if (c < 0x20u || c == 0x7fu) {
            append_u16(out, c);
          } else {
            out += static_cast<char>(c);
          }
      }
      ++i;
    } else {
      append_code_point(out, decode_utf8(text, i));
    }
  }
}

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  // 24 characters hold the longest shortest form, -2.2250738585072014e-308;
  // fixed notation of an integer below 2^53 needs at most 17.
  char buffer[32];
  const bool integral = std::abs(v) < 0x1p53 && v == std::trunc(v);
  const std::to_chars_result result =
      integral ? std::to_chars(buffer, buffer + sizeof(buffer), v,
                               std::chars_format::fixed)
               : std::to_chars(buffer, buffer + sizeof(buffer), v);
  out.append(buffer, result.ptr);
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
}

std::string format_double(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

void JsonWriter::separator() {
  if (stack_.empty()) return;
  if (stack_.back() == 'v') {
    // Key already written; value follows immediately.
    stack_.back() = 'o';
    return;
  }
  if (!first_.back()) out_ += ',';
  first_.back() = false;
}

JsonWriter& JsonWriter::begin_object() {
  separator();
  out_ += '{';
  stack_.push_back('o');
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  stack_.pop_back();
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separator();
  out_ += '[';
  stack_.push_back('a');
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  stack_.pop_back();
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  if (!first_.back()) out_ += ',';
  first_.back() = false;
  out_ += '"';
  append_escaped(out_, name);
  out_ += "\":";
  stack_.back() = 'v';  // next value call skips the comma
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  separator();
  append_double(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  separator();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  separator();
  out_ += '"';
  append_escaped(out_, v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(std::span<const double> values) {
  begin_array();
  for (double v : values) value(v);
  return end_array();
}

JsonWriter& JsonWriter::null() {
  separator();
  out_ += "null";
  return *this;
}

JsonWriter& JsonWriter::integer(std::int64_t v) {
  separator();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::integer(std::uint64_t v) {
  separator();
  out_ += std::to_string(v);
  return *this;
}

void write_file(const std::string& path, std::string_view content) {
  errno = 0;
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("write_file: cannot open '" + path +
                             "': " + std::strerror(errno == 0 ? EIO : errno));
  }
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.flush();
  if (!out) {
    throw std::runtime_error("write_file: write failed for '" + path +
                             "': " + std::strerror(errno == 0 ? EIO : errno));
  }
}

}  // namespace olev::obs
