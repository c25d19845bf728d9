#include "persist/journal.h"

#include <bit>
#include <cstdio>
#include <stdexcept>

#include <unistd.h>  // fsync: the durability half of FsyncPolicy

#include "obs/obs.h"
#include "util/bytes.h"

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

/// Serializes `record` into a caller-owned 48-byte slot at the offsets of
/// the layout in journal.h (no allocation; append() runs on the service
/// loop with a pre-reserved buffer).
void encode_record(const JournalRecord& record,
                   std::uint8_t (&out)[kJournalRecordBytes]) {
  util::store_le(out + 4, static_cast<std::uint64_t>(record.ts_us));
  util::store_le(out + 12, record.player);
  util::store_le(out + 16, record.round);
  util::store_le(out + 24, std::bit_cast<std::uint64_t>(record.total_kw));
  util::store_le(out + 32, record.trace_id);
  util::store_le(out + 40, static_cast<std::uint64_t>(record.client_send_us));
  util::store_le(out, crc32({out + 4, kJournalRecordBytes - 4}));
}

JournalRecord decode_record(const std::uint8_t* slot) {
  JournalRecord record;
  record.ts_us =
      static_cast<std::int64_t>(util::load_le<std::uint64_t>(slot + 4));
  record.player = util::load_le<std::uint32_t>(slot + 12);
  record.round = util::load_le<std::uint64_t>(slot + 16);
  record.total_kw =
      std::bit_cast<double>(util::load_le<std::uint64_t>(slot + 24));
  record.trace_id = util::load_le<std::uint64_t>(slot + 32);
  record.client_send_us =
      static_cast<std::int64_t>(util::load_le<std::uint64_t>(slot + 40));
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
    if (crc32(slot.subspan(4)) != util::load_le<std::uint32_t>(slot.data())) {
      data.truncated = true;  // torn or corrupt record; stop, keep the rest
      break;
    }
    data.records.push_back(decode_record(slot.data()));
    tail = tail.subspan(kJournalRecordBytes);
  }
  return data;
}

}  // namespace olev::persist
