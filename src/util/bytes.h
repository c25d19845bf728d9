// The little-endian byte codec under every binary format in this repo:
// net::Message's wire bytes (net/message.cc), persist's blobs, snapshots and
// journal records (persist/codec.h, persist/journal.cc) and svc's 4-byte
// frame prefix (svc/frame.cc).  Multi-byte integers are little-endian and
// doubles travel as their raw IEEE-754 bit patterns, so every round trip is
// bit-identical (-0.0 and denormals included).  TraCI is big-endian by spec
// and keeps its own codec (traci/protocol.h).
//
//   store_le / load_le  one value into / out of a fixed slot (the 48-byte
//                       journal record, the frame prefix);
//   ByteWriter          a growing buffer;
//   ByteReader          a bounds-checked reader over a span: an underrun
//                       throws std::runtime_error, and a counted vector is
//                       checked against its bound and against the bytes that
//                       remain before anything is allocated.
//
// Header-only so the per-value loops inline into each format's encoder:
// olevd serializes every reply through here.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace olev::util {

/// Writes `value` little-endian into out[0, sizeof(T)).
template <std::unsigned_integral T>
inline void store_le(std::uint8_t* out, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

/// Reads a little-endian T from in[0, sizeof(T)).
template <std::unsigned_integral T>
inline T load_le(const std::uint8_t* in) {
  T value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    value = static_cast<T>(value | (static_cast<T>(in[i]) << (8 * i)));
  }
  return value;
}

class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v)); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }

  /// The entry count as a Count, then the entries (double or unsigned).
  template <std::unsigned_integral Count, typename T>
  void counted(const std::vector<T>& values) {
    put(static_cast<Count>(values.size()));
    for (const T v : values) {
      if constexpr (std::is_same_v<T, double>) {
        f64(v);
      } else {
        put(v);
      }
    }
  }

  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  template <std::unsigned_integral T>
  void put(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> bytes_;
};

class ByteReader {
 public:
  /// `format` names the format in every error message ("message: ...").
  ByteReader(std::span<const std::uint8_t> bytes, const char* format)
      : bytes_(bytes), format_(format) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int64_t i64() {
    return static_cast<std::int64_t>(get<std::uint64_t>());
  }
  double f64() { return std::bit_cast<double>(get<std::uint64_t>()); }

  /// Reads what ByteWriter::counted<Count> wrote.  A count past `max_count`
  /// or past the bytes that remain throws before any buffer is sized.
  template <std::unsigned_integral Count, typename T>
  std::vector<T> counted(std::size_t max_count) {
    const Count count = get<Count>();
    if (count > max_count || remaining() / sizeof(T) < count) {
      fail("vector length corrupt");
    }
    std::vector<T> values;
    values.reserve(count);
    for (Count i = 0; i < count; ++i) {
      if constexpr (std::is_same_v<T, double>) {
        values.push_back(f64());
      } else {
        values.push_back(get<T>());
      }
    }
    return values;
  }

  std::size_t remaining() const { return bytes_.size() - offset_; }
  bool exhausted() const { return offset_ == bytes_.size(); }

 private:
  template <std::unsigned_integral T>
  T get() {
    if (remaining() < sizeof(T)) fail("truncated");
    const T value = load_le<T>(bytes_.data() + offset_);
    offset_ += sizeof(T);
    return value;
  }

  // Out of line and cold, so the throw does not bloat the inlined reads.
  [[noreturn, gnu::cold, gnu::noinline]] void fail(const char* what) const {
    throw std::runtime_error(std::string(format_) + ": " + what);
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
  const char* format_;
};

}  // namespace olev::util
