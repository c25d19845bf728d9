// persist::Codec -- the framing discipline every durable artifact in this
// repo shares (docs/PERSISTENCE.md).
//
// A blob on disk is a fixed 20-byte header followed by the payload:
//
//   offset  size  field        meaning
//        0     4  magic        0x4F4C4556 ("OLEV" when read LE)
//        4     4  crc32        CRC-32 (0xEDB88320) over bytes 8..end
//        8     2  version      kCodecVersion; any other value is rejected
//       10     1  kind         BlobKind (snapshot / journal header)
//       11     1  flags        reserved, must be 0 in version 1
//       12     8  payload_len  little-endian byte count of the payload
//
// The contract mirrors svc::FrameDecoder's poisoning (svc/frame.h): a
// truncated, oversized, or version-skewed blob is rejected from the header
// alone -- before any payload allocation -- and the CRC covers every byte
// after the checksum field, so a single flipped bit anywhere (version,
// kind, flags, length, payload) fails decode.  All decode failures throw
// std::runtime_error; nothing here ever crashes on hostile bytes (pinned
// under ASan by tests/test_persist_fuzz.cc).
//
// Like net/message.cc, multi-byte integers are little-endian and doubles
// travel as their raw IEEE-754 bit patterns, which is what makes
// snapshot round trips bit-identical rather than merely approximately
// equal.
//
// File I/O note: this layer (and the sinks built on it) uses C stdio only
// -- lint rule R5 reserves the raw read/write syscalls for src/svc, and
// rule R8 reserves data-path file I/O for src/persist and the obs sinks.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace olev::persist {

inline constexpr std::uint32_t kMagic = 0x4F4C4556;  // "OLEV" little-endian
inline constexpr std::uint16_t kCodecVersion = 1;
inline constexpr std::size_t kBlobHeaderBytes = 20;
/// Header-alone rejection bound: a payload_len past this is hostile or
/// corrupt no matter what follows (a city-scale snapshot is ~megabytes).
/// encode_blob refuses to frame a longer payload, so nothing written here
/// is unreadable by decode_blob's default.
inline constexpr std::uint64_t kDefaultMaxPayloadBytes = 64ull << 20;
/// Longest vector a payload may carry: 8M doubles is the payload ceiling
/// expressed in doubles.  Writer refuses to encode a longer one, and the
/// snapshot and journal decoders refuse to read one.
inline constexpr std::size_t kMaxVectorEntries = 8'000'000;

/// What a blob claims to contain; decode rejects a kind mismatch so a
/// journal file can never be fed to the snapshot loader (or vice versa).
enum class BlobKind : std::uint8_t {
  kSnapshot = 1,       ///< full ServiceSnapshot (persist/snapshot.h)
  kJournalHeader = 2,  ///< journal preamble; records follow the frame
};

/// CRC-32 (reflected polynomial 0xEDB88320, zlib-compatible).  `seed`
/// chains incremental updates: crc32(b, crc32(a)) == crc32(a+b).
std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                    std::uint32_t seed = 0);

/// Little-endian byte-sink mirroring net/message.cc's Writer; doubles are
/// written as raw bit patterns (bit-identical round trip).  The vector
/// writers throw std::runtime_error past kMaxVectorEntries.
class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  void f64_vector(const std::vector<double>& values);
  void u32_vector(const std::vector<std::uint32_t>& values);
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian reader; every underrun throws
/// std::runtime_error (never reads past the span).
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  std::vector<double> f64_vector(std::size_t max_count);
  std::vector<std::uint32_t> u32_vector(std::size_t max_count);
  std::size_t remaining() const { return bytes_.size() - offset_; }
  bool exhausted() const { return offset_ == bytes_.size(); }

 private:
  std::span<const std::uint8_t> take(std::size_t n);

  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
};

/// Frames `payload` as a versioned blob (header above + payload).  Throws
/// std::runtime_error when the payload exceeds kDefaultMaxPayloadBytes.
std::vector<std::uint8_t> encode_blob(BlobKind kind,
                                      std::span<const std::uint8_t> payload);

/// Validates a blob that must span `bytes` exactly (snapshot files) and
/// returns the payload.  Throws std::runtime_error on any of: truncated
/// header, bad magic, version skew, unknown kind, kind mismatch, nonzero
/// flags, payload_len over `max_payload_bytes` or disagreeing with the
/// actual byte count, CRC mismatch.
std::vector<std::uint8_t> decode_blob(
    BlobKind kind, std::span<const std::uint8_t> bytes,
    std::uint64_t max_payload_bytes = kDefaultMaxPayloadBytes);

/// Same validation, but tolerates trailing data after the framed payload
/// (journal files append records behind the header frame).  On success
/// `consumed` is header + payload size.
std::vector<std::uint8_t> decode_blob_prefix(
    BlobKind kind, std::span<const std::uint8_t> bytes, std::size_t& consumed,
    std::uint64_t max_payload_bytes = kDefaultMaxPayloadBytes);

/// Atomic whole-file write: the bytes land in `path + ".tmp"`, are flushed
/// and fsync'd, then renamed over `path` -- a crash leaves either the old
/// file or the new one, never a torn mix.  Throws std::runtime_error on
/// any I/O failure (the temp file is removed on the error path).
void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes);

/// Reads a whole file.  The size is checked against `max_bytes` before any
/// buffer is sized (oversized files are rejected from the stat alone).
std::vector<std::uint8_t> read_file(
    const std::string& path,
    std::uint64_t max_bytes = kBlobHeaderBytes + kDefaultMaxPayloadBytes);

}  // namespace olev::persist
