#include "persist/journal.h"

#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <unistd.h>  // fsync: the durability half of FsyncPolicy

#include "obs/obs.h"

namespace olev::persist {
namespace {

std::vector<std::uint8_t> encode_header(const JournalHeader& header) {
  Writer w;
  w.u8(header.mode);
  w.u64(header.players);
  w.u64(header.sections);
  w.f64(header.epsilon);
  w.f64_vector(header.caps_kw);
  return w.take();
}

JournalHeader decode_header(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  JournalHeader header;
  header.mode = r.u8();
  header.players = r.u64();
  header.sections = r.u64();
  header.epsilon = r.f64();
  header.caps_kw = r.f64_vector(kMaxVectorEntries);
  if (!r.exhausted()) {
    throw std::runtime_error("persist: trailing bytes in journal header");
  }
  if (header.mode > 1 || header.players == 0 || header.sections == 0 ||
      header.caps_kw.size() != header.players) {
    throw std::runtime_error("persist: journal header inconsistent");
  }
  return header;
}

/// Serializes `record` into a caller-owned 48-byte slot (no allocation;
/// append() runs on the service loop with a pre-reserved buffer).
void encode_record(const JournalRecord& record,
                   std::uint8_t (&out)[kJournalRecordBytes]) {
  auto put_u32 = [&out](std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  auto put_u64 = [&out](std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out[at + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  put_u64(4, static_cast<std::uint64_t>(record.ts_us));
  put_u32(12, record.player);
  put_u64(16, record.round);
  std::uint64_t kw_bits;
  std::memcpy(&kw_bits, &record.total_kw, sizeof(kw_bits));
  put_u64(24, kw_bits);
  put_u64(32, record.trace_id);
  put_u64(40, static_cast<std::uint64_t>(record.client_send_us));
  put_u32(0, crc32({out + 4, kJournalRecordBytes - 4}));
}

JournalRecord decode_record(std::span<const std::uint8_t> bytes) {
  Reader r(bytes.subspan(4));
  JournalRecord record;
  record.ts_us = r.i64();
  record.player = r.u32();
  record.round = r.u64();
  record.total_kw = r.f64();
  record.trace_id = r.u64();
  record.client_send_us = r.i64();
  return record;
}

}  // namespace

JournalWriter::JournalWriter(const std::string& path,
                             const JournalHeader& header, FsyncPolicy policy)
    : policy_(policy) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("persist: cannot create journal '" + path + "'");
  }
  buffer_.reserve(kJournalBufferBytes + kJournalRecordBytes);
  const std::vector<std::uint8_t> frame =
      encode_blob(BlobKind::kJournalHeader, encode_header(header));
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    std::fclose(file_);
    file_ = nullptr;
    throw std::runtime_error("persist: cannot write journal header '" + path +
                             "'");
  }
  // The header hits the disk before the first record under any policy: a
  // journal whose shape is unreadable cannot be replayed at all.
  if (std::fflush(file_) != 0 ||
      (policy_ != FsyncPolicy::kNone && fsync(fileno(file_)) != 0)) {
    std::fclose(file_);
    file_ = nullptr;
    throw std::runtime_error("persist: cannot flush journal header '" + path +
                             "'");
  }
}

JournalWriter::~JournalWriter() {
  if (file_ == nullptr) return;
  try {
    flush();
  } catch (const std::exception&) {
    // Destructor path: the drain calls flush() explicitly to observe
    // errors; here the close below is all that is left to do.
  }
  std::fclose(file_);
  file_ = nullptr;
}

void JournalWriter::append(const JournalRecord& record) {
  if (buffer_.size() + kJournalRecordBytes > kJournalBufferBytes) {
    flush();
  }
  std::uint8_t slot[kJournalRecordBytes];
  encode_record(record, slot);
  // Reserved in the constructor past the flush threshold, so this insert
  // never reallocates: append() is allocation-free on the service loop.
  buffer_.insert(buffer_.end(), slot, slot + kJournalRecordBytes);
  ++records_;
  OLEV_OBS_COUNTER(journal_records, "persist.journal.records");
  OLEV_OBS_ADD(journal_records, 1);
  if (policy_ == FsyncPolicy::kEveryRecord) flush();
}

void JournalWriter::flush() {
  if (file_ == nullptr) {
    throw std::runtime_error("persist: journal already closed");
  }
  if (!buffer_.empty()) {
    if (std::fwrite(buffer_.data(), 1, buffer_.size(), file_) !=
        buffer_.size()) {
      throw std::runtime_error("persist: short journal write");
    }
    buffer_.clear();
  }
  if (std::fflush(file_) != 0) {
    throw std::runtime_error("persist: journal flush failed");
  }
  if (policy_ != FsyncPolicy::kNone && fsync(fileno(file_)) != 0) {
    throw std::runtime_error("persist: journal fsync failed");
  }
}

JournalData read_journal(const std::string& path, std::uint64_t max_bytes) {
  const std::vector<std::uint8_t> bytes = read_file(path, max_bytes);
  std::size_t consumed = 0;
  const std::vector<std::uint8_t> header_payload = decode_blob_prefix(
      BlobKind::kJournalHeader, std::span<const std::uint8_t>(bytes), consumed);
  JournalData data;
  data.header = decode_header(header_payload);
  std::span<const std::uint8_t> tail(bytes.data() + consumed,
                                     bytes.size() - consumed);
  while (!tail.empty()) {
    if (tail.size() < kJournalRecordBytes) {
      data.truncated = true;  // torn tail: crash mid-record
      break;
    }
    const auto slot = tail.first(kJournalRecordBytes);
    Reader crc_reader(slot);
    const std::uint32_t stored_crc = crc_reader.u32();
    if (crc32(slot.subspan(4)) != stored_crc) {
      data.truncated = true;  // torn or corrupt record; stop, keep the rest
      break;
    }
    data.records.push_back(decode_record(slot));
    tail = tail.subspan(kJournalRecordBytes);
  }
  return data;
}

}  // namespace olev::persist
