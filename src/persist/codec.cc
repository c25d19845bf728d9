#include "persist/codec.h"

#include <array>
#include <cstdio>
#include <stdexcept>

#include <unistd.h>  // fsync: durability half of the atomic tmp+rename write

namespace olev::persist {
namespace {

/// Table-driven CRC-32, generated once (reflected 0xEDB88320, the zlib
/// polynomial -- chosen so external tooling can verify snapshots).
std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t value = i;
    for (int bit = 0; bit < 8; ++bit) {
      value = (value >> 1) ^ ((value & 1u) ? 0xEDB88320u : 0u);
    }
    table[i] = value;
  }
  return table;
}

/// RAII stdio handle so every error path closes (and the writer can remove
/// its temp file without goto ladders).
struct File {
  explicit File(std::FILE* handle) : f(handle) {}
  ~File() {
    if (f != nullptr) std::fclose(f);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  std::FILE* f = nullptr;
};

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("persist: " + what + " '" + path + "'");
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t crc = ~seed;
  for (const std::uint8_t byte : bytes) {
    crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFFu];
  }
  return ~crc;
}

void check_vector_length(std::size_t entries) {
  if (entries > kMaxVectorEntries) {
    throw std::runtime_error("persist: vector of " + std::to_string(entries) +
                             " entries exceeds the decode bound");
  }
}

std::vector<std::uint8_t> encode_blob(BlobKind kind,
                                      std::span<const std::uint8_t> payload) {
  if (payload.size() > kDefaultMaxPayloadBytes) {
    throw std::runtime_error("persist: payload of " +
                             std::to_string(payload.size()) +
                             " bytes exceeds the decode bound");
  }
  Writer header;
  header.u16(kCodecVersion);
  header.u8(static_cast<std::uint8_t>(kind));
  header.u8(0);  // flags, reserved
  header.u64(static_cast<std::uint64_t>(payload.size()));
  std::vector<std::uint8_t> covered = header.take();  // bytes 8..19
  std::uint32_t crc = crc32(covered);
  crc = crc32(payload, crc);

  Writer out;
  out.u32(kMagic);
  out.u32(crc);
  std::vector<std::uint8_t> blob = out.take();
  blob.insert(blob.end(), covered.begin(), covered.end());
  blob.insert(blob.end(), payload.begin(), payload.end());
  return blob;
}

std::vector<std::uint8_t> decode_blob_prefix(
    BlobKind kind, std::span<const std::uint8_t> bytes, std::size_t& consumed,
    std::uint64_t max_payload_bytes) {
  if (bytes.size() < kBlobHeaderBytes) {
    throw std::runtime_error("persist: truncated header");
  }
  Reader header(bytes.first(kBlobHeaderBytes));
  if (header.u32() != kMagic) {
    throw std::runtime_error("persist: bad magic");
  }
  const std::uint32_t stored_crc = header.u32();
  const std::uint16_t version = header.u16();
  if (version != kCodecVersion) {
    throw std::runtime_error("persist: version skew (got " +
                             std::to_string(version) + ", expected " +
                             std::to_string(kCodecVersion) + ")");
  }
  const std::uint8_t stored_kind = header.u8();
  if (stored_kind != static_cast<std::uint8_t>(kind)) {
    throw std::runtime_error("persist: blob kind mismatch");
  }
  if (header.u8() != 0) {
    throw std::runtime_error("persist: reserved flags set");
  }
  const std::uint64_t payload_len = header.u64();
  // Header-alone rejection: the length decides before any payload read.
  if (payload_len > max_payload_bytes) {
    throw std::runtime_error("persist: payload oversized");
  }
  if (bytes.size() - kBlobHeaderBytes < payload_len) {
    throw std::runtime_error("persist: truncated payload");
  }
  const auto covered = bytes.subspan(8, 12);  // version..payload_len
  const auto payload =
      bytes.subspan(kBlobHeaderBytes, static_cast<std::size_t>(payload_len));
  std::uint32_t crc = crc32(covered);
  crc = crc32(payload, crc);
  if (crc != stored_crc) {
    throw std::runtime_error("persist: CRC mismatch");
  }
  consumed = kBlobHeaderBytes + static_cast<std::size_t>(payload_len);
  return std::vector<std::uint8_t>(payload.begin(), payload.end());
}

std::vector<std::uint8_t> decode_blob(BlobKind kind,
                                      std::span<const std::uint8_t> bytes,
                                      std::uint64_t max_payload_bytes) {
  std::size_t consumed = 0;
  std::vector<std::uint8_t> payload =
      decode_blob_prefix(kind, bytes, consumed, max_payload_bytes);
  if (consumed != bytes.size()) {
    throw std::runtime_error("persist: trailing bytes after blob");
  }
  return payload;
}

void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  {
    File out(std::fopen(tmp.c_str(), "wb"));
    if (out.f == nullptr) fail("cannot create", tmp);
    if (!bytes.empty() &&
        std::fwrite(bytes.data(), 1, bytes.size(), out.f) != bytes.size()) {
      std::remove(tmp.c_str());
      fail("short write to", tmp);
    }
    if (std::fflush(out.f) != 0 || fsync(fileno(out.f)) != 0) {
      std::remove(tmp.c_str());
      fail("cannot flush", tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail("cannot rename into", path);
  }
}

std::vector<std::uint8_t> read_file(const std::string& path,
                                    std::uint64_t max_bytes) {
  File in(std::fopen(path.c_str(), "rb"));
  if (in.f == nullptr) fail("cannot open", path);
  if (std::fseek(in.f, 0, SEEK_END) != 0) fail("cannot seek", path);
  const long end = std::ftell(in.f);
  if (end < 0) fail("cannot size", path);
  if (static_cast<std::uint64_t>(end) > max_bytes) {
    fail("file oversized", path);
  }
  if (std::fseek(in.f, 0, SEEK_SET) != 0) fail("cannot seek", path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(end));
  if (!bytes.empty() &&
      std::fread(bytes.data(), 1, bytes.size(), in.f) != bytes.size()) {
    fail("short read from", path);
  }
  return bytes;
}

}  // namespace olev::persist
