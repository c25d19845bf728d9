// Write-ahead request journal + deterministic replay source
// (docs/PERSISTENCE.md, "Journal").
//
// olevd appends one fixed-size record per APPLIED request -- exactly the
// inputs PricingEngine::apply consumed, in apply order, plus the request's
// admission stamp and TraceContext -- from the poll(2) loop, right after the
// apply and before the reply is sent.  A request that expires in the queue
// is never applied and never journaled.  Because Theorem IV.1's update
// sequence is deterministic given the apply order, feeding a journal back
// through a fresh engine (tools/olev_replay) reproduces every ScheduleMsg
// and the live schedule bit-identically: any production incident becomes a
// local regression test.
//
// File layout: one persist::Codec frame (BlobKind::kJournalHeader) whose
// payload pins the engine shape, then raw 48-byte records:
//
//   offset  size  field           offset  size  field
//        0     4  crc32 of 4..47      16     8  round
//        4     8  ts_us               24     8  total_kw (f64 bits)
//       12     4  player              32     8  trace_id
//                                     40     8  client_send_us (i64)
//
// Each record carries its own CRC, so a torn tail (the crash case a
// write-ahead log exists for) is detected and tolerated: read_journal
// returns every intact record and flags the truncation instead of
// throwing.
//
// The writer is allocation-bounded: its buffer is reserved once in the
// constructor and append() never allocates (it flushes first when the
// buffer is full).  Appending is off every rtcheck-audited hot root --
// it runs in PricingService::run_batch, after the engine's apply() returns.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "persist/codec.h"

namespace olev::persist {

/// When journal bytes reach the disk (olevd --journal-fsync):
enum class FsyncPolicy : std::uint8_t {
  kNone = 0,     ///< buffered stdio only; fastest, loses tail on power cut
  kOnFlush = 1,  ///< fsync whenever the buffer flushes (default)
  kEveryRecord = 2,  ///< flush + fsync per record; true write-AHEAD durability
};

/// Engine shape pinned at the head of every journal; replay refuses a
/// journal whose shape it cannot reconstruct.
struct JournalHeader {
  std::uint8_t mode = 0;  ///< 0 = exact, 1 = mean-field
  std::uint64_t players = 0;
  std::uint64_t sections = 0;
  double epsilon = 0.0;
  std::vector<double> caps_kw;  ///< resolved per-player caps (size players)

  bool operator==(const JournalHeader&) const = default;
};

/// One applied request, in apply order.
struct JournalRecord {
  std::int64_t ts_us = 0;  ///< service-loop admission stamp (not apply time)
  std::uint32_t player = 0;
  std::uint64_t round = 0;
  double total_kw = 0.0;
  std::uint64_t trace_id = 0;       ///< net::TraceContext echo
  std::int64_t client_send_us = 0;  ///< net::TraceContext echo

  bool operator==(const JournalRecord&) const = default;
};

inline constexpr std::size_t kJournalRecordBytes = 48;
/// Writer buffer: ~1365 records between flushes under FsyncPolicy::kNone.
inline constexpr std::size_t kJournalBufferBytes = 64 * 1024;

class JournalWriter {
 public:
  /// Creates/truncates `path`, writes the framed header, reserves the
  /// append buffer.  Throws std::runtime_error on I/O failure.
  JournalWriter(const std::string& path, const JournalHeader& header,
                FsyncPolicy policy = FsyncPolicy::kOnFlush);
  /// Flushes and closes; flush errors at this point are swallowed (the
  /// drain path calls flush() explicitly to observe them).
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Buffers one record (flushing first if the buffer is full).  Never
  /// allocates after construction.  Throws std::runtime_error only via
  /// that flush (disk full / closed file).
  void append(const JournalRecord& record);

  /// Drains the buffer to stdio, fflushes, and fsyncs under kOnFlush /
  /// kEveryRecord.  Idempotent.  Throws std::runtime_error on failure.
  void flush();

  std::uint64_t records() const { return records_; }

 private:
  std::FILE* file_ = nullptr;
  FsyncPolicy policy_;
  std::vector<std::uint8_t> buffer_;
  std::uint64_t records_ = 0;
};

/// A parsed journal.  `truncated` is set when the file ends mid-record or
/// the tail fails its CRC -- the records before the damage are returned.
struct JournalData {
  JournalHeader header;
  std::vector<JournalRecord> records;
  bool truncated = false;
};

/// Reads and validates a journal file.  Header damage throws (nothing can
/// be replayed without the engine shape); record-level damage truncates.
JournalData read_journal(const std::string& path,
                         std::uint64_t max_bytes = 1ull << 30);

}  // namespace olev::persist
