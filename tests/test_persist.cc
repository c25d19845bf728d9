// The durable state plane: codec framing, snapshot bit-identity, the
// write-ahead journal, deterministic replay, and the service-level
// drain-save / --resume / session re-attach contracts (docs/PERSISTENCE.md).
#include "persist/snapshot.h"

#include <gtest/gtest.h>

#include <sys/mman.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/best_response.h"
#include "core/cost.h"
#include "core/distributed.h"
#include "core/satisfaction.h"
#include "net/message.h"
#include "persist/codec.h"
#include "persist/journal.h"
#include "svc/client.h"
#include "svc/engine.h"
#include "svc/loadgen.h"
#include "svc/service.h"
#include "util/rng.h"

namespace olev::persist {
namespace {

/// Unique scratch path per test; removed on destruction.
struct TempPath {
  explicit TempPath(const std::string& name)
      : path(::testing::TempDir() + "olev_persist_" + name) {
    std::remove(path.c_str());
  }
  ~TempPath() { std::remove(path.c_str()); }
  std::string path;
};

core::SectionCost make_cost(double cap = 40.0) {
  return core::SectionCost(
      std::make_unique<core::NonlinearPricing>(5.0, 0.875, cap),
      core::OverloadCost{1.0}, util::kw(cap));
}

// --- codec ------------------------------------------------------------------

TEST(Codec, Crc32MatchesTheReferenceVector) {
  // The canonical CRC-32 check value: crc32("123456789") == 0xCBF43926.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(digits), 0xCBF43926u);
  // Seed chaining: crc32(a+b) == crc32(b, crc32(a)).
  EXPECT_EQ(crc32(std::span(digits).subspan(4), crc32(std::span(digits).first(4))),
            crc32(digits));
}

TEST(Codec, WriterReaderRoundTripIsBitIdentical) {
  Writer writer;
  writer.u8(0xAB);
  writer.u16(0xBEEF);
  writer.u32(0xDEADBEEF);
  writer.u64(0x0123456789ABCDEFull);
  writer.i64(-42);
  writer.f64(-0.0);
  writer.f64(std::numeric_limits<double>::denorm_min());
  writer.f64_vector({1.0 / 3.0, -1e308, 5e-324});
  writer.u32_vector({7, 0, 0xFFFFFFFF});
  const std::vector<std::uint8_t> bytes = writer.take();

  Reader reader(bytes);
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u16(), 0xBEEF);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.i64(), -42);
  // Bit-pattern comparison: -0.0 == 0.0 under operator==, but the codec
  // contract is the stronger one.
  const double neg_zero = reader.f64();
  std::uint64_t bits = 0;
  std::memcpy(&bits, &neg_zero, sizeof(bits));
  EXPECT_EQ(bits, 0x8000000000000000ull);
  EXPECT_EQ(reader.f64(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(reader.f64_vector(16),
            (std::vector<double>{1.0 / 3.0, -1e308, 5e-324}));
  EXPECT_EQ(reader.u32_vector(16), (std::vector<std::uint32_t>{7, 0, 0xFFFFFFFF}));
  EXPECT_TRUE(reader.exhausted());
}

TEST(Codec, ReaderThrowsOnUnderrunAndOversizedVector) {
  const std::uint8_t two[] = {1, 2};
  Reader short_reader(two);
  EXPECT_THROW((void)short_reader.u32(), std::runtime_error);

  Writer writer;
  writer.f64_vector({1.0, 2.0, 3.0});
  const std::vector<std::uint8_t> bytes = writer.take();
  Reader capped(bytes);
  // Count field says 3, caller caps at 2: rejected before allocation.
  EXPECT_THROW((void)capped.f64_vector(2), std::runtime_error);
}

TEST(Codec, BlobRoundTripAndKindMismatch) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> blob =
      encode_blob(BlobKind::kSnapshot, payload);
  ASSERT_EQ(blob.size(), kBlobHeaderBytes + payload.size());
  EXPECT_EQ(decode_blob(BlobKind::kSnapshot, blob), payload);
  // A journal header can never be fed to the snapshot loader.
  EXPECT_THROW((void)decode_blob(BlobKind::kJournalHeader, blob),
               std::runtime_error);
}

TEST(Codec, BlobPrefixToleratesTrailingRecords) {
  const std::vector<std::uint8_t> payload = {9, 8, 7};
  std::vector<std::uint8_t> blob = encode_blob(BlobKind::kJournalHeader, payload);
  const std::size_t framed = blob.size();
  blob.insert(blob.end(), {0xAA, 0xBB, 0xCC});  // trailing journal records
  // Strict decode rejects the trailing bytes; prefix decode consumes the
  // frame and reports where the records begin.
  EXPECT_THROW((void)decode_blob(BlobKind::kJournalHeader, blob),
               std::runtime_error);
  std::size_t consumed = 0;
  EXPECT_EQ(decode_blob_prefix(BlobKind::kJournalHeader, blob, consumed),
            payload);
  EXPECT_EQ(consumed, framed);
}

TEST(Codec, OversizedPayloadRejectedFromHeaderAlone) {
  // A header claiming a 1 GiB payload, with no payload behind it: the claim
  // itself must be rejected (before any buffer is sized) under a small cap.
  std::vector<std::uint8_t> payload(32, 0);
  std::vector<std::uint8_t> blob = encode_blob(BlobKind::kSnapshot, payload);
  const std::uint64_t huge = 1ull << 30;
  std::memcpy(blob.data() + 12, &huge, sizeof(huge));
  EXPECT_THROW(
      (void)decode_blob(BlobKind::kSnapshot,
                        std::span(blob).first(kBlobHeaderBytes), 1024),
      std::runtime_error);
}

TEST(Codec, EncodeRefusesAPayloadDecodeWouldRefuse) {
  // One byte past the bound, mapped but never touched: the length alone
  // must be refused, before the CRC reads a byte.
  const std::size_t length = kDefaultMaxPayloadBytes + 1;
  void* pages = ::mmap(nullptr, length, PROT_READ,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ASSERT_NE(pages, MAP_FAILED);
  const std::span<const std::uint8_t> payload(
      static_cast<const std::uint8_t*>(pages), length);
  EXPECT_THROW((void)encode_blob(BlobKind::kSnapshot, payload),
               std::runtime_error);
  ::munmap(pages, length);
}

TEST(Codec, AtomicFileRoundTripLeavesNoTempBehind) {
  TempPath file("codec_atomic.bin");
  const std::vector<std::uint8_t> bytes = {0, 1, 2, 3, 250, 251, 252};
  write_file_atomic(file.path, bytes);
  EXPECT_EQ(read_file(file.path), bytes);
  // The staging file must be gone after the rename.
  std::FILE* tmp = std::fopen((file.path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
  // Overwrite goes through the same path: old content fully replaced.
  const std::vector<std::uint8_t> replacement = {42};
  write_file_atomic(file.path, replacement);
  EXPECT_EQ(read_file(file.path), replacement);
}

TEST(Codec, ReadFileRejectsOversizedFromSizeAlone) {
  TempPath file("codec_oversize.bin");
  write_file_atomic(file.path, std::vector<std::uint8_t>(256, 7));
  EXPECT_THROW((void)read_file(file.path, 255), std::runtime_error);
}

// --- snapshots --------------------------------------------------------------

ServiceSnapshot sample_snapshot() {
  ServiceSnapshot snapshot;
  snapshot.engine.mode = 1;
  snapshot.engine.players = 3;
  snapshot.engine.sections = 2;
  snapshot.engine.epsilon = 1e-7;
  snapshot.engine.caps_kw = {40.0, std::numeric_limits<double>::infinity(),
                             12.5};
  snapshot.engine.schedule_kw = {1.0 / 3.0, 0.1, 5e-324, 0.0, -0.0, 2e17};
  snapshot.engine.updates = 17;
  snapshot.engine.residual = 0.0625;
  snapshot.engine.converged = 0;
  snapshot.engine.total_load_kw = 97.25;
  snapshot.announcing_started = 1;
  snapshot.converged_broadcast = 0;
  snapshot.bound_players = {0, 2};
  return snapshot;
}

TEST(Snapshot, EncodeDecodeRoundTripsBitIdentically) {
  const ServiceSnapshot snapshot = sample_snapshot();
  const ServiceSnapshot decoded = decode(encode(snapshot));
  EXPECT_EQ(decoded, snapshot);
  // operator== on doubles is too weak for -0.0; pin the raw bytes too.
  EXPECT_EQ(encode(decoded), encode(snapshot));
}

TEST(Snapshot, SaveLoadFileRoundTrip) {
  TempPath file("snapshot_roundtrip.bin");
  const ServiceSnapshot snapshot = sample_snapshot();
  save(file.path, snapshot);
  const ServiceSnapshot loaded = load(file.path);
  EXPECT_EQ(loaded, snapshot);
  EXPECT_EQ(encode(loaded), encode(snapshot));
}

TEST(Snapshot, DecodeRejectsShapeLies) {
  ServiceSnapshot snapshot = sample_snapshot();
  snapshot.engine.schedule_kw.pop_back();  // no longer players * sections
  EXPECT_THROW((void)decode(encode(snapshot)), std::runtime_error);

  ServiceSnapshot bad_player = sample_snapshot();
  bad_player.bound_players = {5};  // out of the 3-player universe
  EXPECT_THROW((void)decode(encode(bad_player)), std::runtime_error);
}

TEST(Snapshot, SaveOverTheDecodeBoundThrowsAndKeepsTheOldFile) {
  TempPath file("snapshot_oversize.bin");
  save(file.path, sample_snapshot());
  const std::vector<std::uint8_t> before = read_file(file.path);

  // One schedule entry past what load() accepts: save must refuse it rather
  // than replace a loadable snapshot with one --resume cannot read.
  ServiceSnapshot oversized = sample_snapshot();
  oversized.engine.players = 1;
  oversized.engine.sections = kMaxVectorEntries + 1;
  oversized.engine.caps_kw = {40.0};
  oversized.engine.schedule_kw.assign(kMaxVectorEntries + 1, 1.0);
  oversized.bound_players.clear();
  EXPECT_THROW(save(file.path, oversized), std::runtime_error);

  EXPECT_EQ(read_file(file.path), before);
  EXPECT_EQ(load(file.path), sample_snapshot());
}

// --- engine state capture / restore -----------------------------------------

svc::EngineConfig engine_config(svc::EngineMode mode, std::size_t players = 5,
                                std::size_t sections = 3) {
  svc::EngineConfig config;
  config.players = players;
  config.sections = sections;
  config.epsilon = 1e-9;
  config.mode = mode;
  return config;
}

/// Applies a deterministic request stream; returns the payment sequence.
std::vector<double> drive(svc::PricingEngine& engine, std::uint64_t seed,
                          std::size_t count) {
  util::Rng rng(seed);
  std::vector<double> payments;
  payments.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto player = static_cast<std::size_t>(i % engine.players());
    const auto& applied = engine.apply(player, rng.uniform(0.0, 120.0));
    payments.push_back(applied.payment);
  }
  return payments;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(Snapshot, EngineSplitRunIsBitIdenticalToUninterrupted) {
  for (const svc::EngineMode mode :
       {svc::EngineMode::kExact, svc::EngineMode::kMeanField}) {
    SCOPED_TRACE(mode == svc::EngineMode::kExact ? "exact" : "meanfield");
    // Reference: 400 updates straight through.
    svc::PricingEngine reference(make_cost(), engine_config(mode));
    const std::vector<double> reference_payments = drive(reference, 99, 400);

    // Interrupted: 217 updates, state round-tripped through the snapshot
    // codec into a fresh engine, then the remaining 183.
    svc::PricingEngine first(make_cost(), engine_config(mode));
    util::Rng rng(99);
    std::vector<double> payments;
    for (std::size_t i = 0; i < 217; ++i) {
      payments.push_back(
          first.apply(i % first.players(), rng.uniform(0.0, 120.0)).payment);
    }

    EngineSnapshot state;
    state.mode = mode == svc::EngineMode::kMeanField ? 1 : 0;
    state.players = first.players();
    state.sections = first.sections();
    state.epsilon = 1e-9;
    state.caps_kw = first.caps_kw();
    const std::span<const double> flat = first.schedule().flat();
    state.schedule_kw.assign(flat.begin(), flat.end());
    state.updates = first.updates();
    state.residual = first.residual();
    state.converged = first.converged() ? 1 : 0;
    state.total_load_kw = first.total_load_kw();
    ServiceSnapshot wrapped;
    wrapped.engine = state;
    const ServiceSnapshot restored = decode(encode(wrapped));

    svc::PricingEngine second(make_cost(), engine_config(mode));
    second.restore_state(restored.engine.schedule_kw, restored.engine.updates,
                         restored.engine.residual,
                         restored.engine.converged != 0,
                         restored.engine.total_load_kw);
    for (std::size_t i = 217; i < 400; ++i) {
      payments.push_back(
          second.apply(i % second.players(), rng.uniform(0.0, 120.0)).payment);
    }

    EXPECT_TRUE(same_bits(second.schedule().flat(), reference.schedule().flat()));
    EXPECT_TRUE(same_bits(payments, reference_payments));
    EXPECT_EQ(second.updates(), reference.updates());
    EXPECT_EQ(second.cursor(), reference.cursor());
    const double second_residual = second.residual();
    const double reference_residual = reference.residual();
    EXPECT_TRUE(same_bits({&second_residual, 1}, {&reference_residual, 1}));
  }
}

TEST(Snapshot, RestoreRejectsWrongShape) {
  svc::PricingEngine engine(make_cost(), engine_config(svc::EngineMode::kExact));
  const std::vector<double> wrong(engine.players() * engine.sections() + 1);
  EXPECT_THROW(engine.restore_state(wrong, 0, 0.0, false, 0.0),
               std::invalid_argument);
}

// --- journal ----------------------------------------------------------------

JournalHeader sample_header() {
  JournalHeader header;
  header.mode = 0;
  header.players = 4;
  header.sections = 3;
  header.epsilon = 1e-9;
  header.caps_kw = {40.0, 40.0, 40.0, 40.0};
  return header;
}

TEST(Journal, WriteReadRoundTrip) {
  TempPath file("journal_roundtrip.bin");
  const JournalHeader header = sample_header();
  std::vector<JournalRecord> records;
  {
    JournalWriter writer(file.path, header, FsyncPolicy::kOnFlush);
    util::Rng rng(5);
    for (std::uint64_t i = 0; i < 100; ++i) {
      JournalRecord record;
      record.ts_us = static_cast<std::int64_t>(1'000'000 + i);
      record.player = static_cast<std::uint32_t>(i % header.players);
      record.round = i;
      record.total_kw = rng.uniform(0.0, 120.0);
      record.trace_id = i + 1;
      record.client_send_us = static_cast<std::int64_t>(900'000 + i);
      writer.append(record);
      records.push_back(record);
    }
    EXPECT_EQ(writer.records(), 100u);
    writer.flush();
  }
  const JournalData data = read_journal(file.path);
  EXPECT_EQ(data.header, header);
  EXPECT_FALSE(data.truncated);
  ASSERT_EQ(data.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(data.records[i], records[i]) << "record " << i;
  }
}

TEST(Journal, AppendSpillsPastTheBufferWithoutLoss) {
  TempPath file("journal_spill.bin");
  // More records than fit in the 64 KiB buffer: appends must flush-and-go.
  const std::uint64_t count = 2 * (kJournalBufferBytes / kJournalRecordBytes);
  {
    JournalWriter writer(file.path, sample_header(), FsyncPolicy::kNone);
    for (std::uint64_t i = 0; i < count; ++i) {
      JournalRecord record;
      record.player = static_cast<std::uint32_t>(i % 4);
      record.round = i;
      record.total_kw = static_cast<double>(i) * 0.5;
      writer.append(record);
    }
    writer.flush();
  }
  const JournalData data = read_journal(file.path);
  EXPECT_FALSE(data.truncated);
  ASSERT_EQ(data.records.size(), count);
  EXPECT_EQ(data.records.back().round, count - 1);
}

TEST(Journal, ReplayThroughFreshEngineMatchesDirectRun) {
  for (const svc::EngineMode mode :
       {svc::EngineMode::kExact, svc::EngineMode::kMeanField}) {
    SCOPED_TRACE(mode == svc::EngineMode::kExact ? "exact" : "meanfield");
    TempPath file(mode == svc::EngineMode::kExact ? "journal_replay_e.bin"
                                                  : "journal_replay_m.bin");
    svc::PricingEngine direct(make_cost(), engine_config(mode, 4, 3));
    JournalHeader header;
    header.mode = mode == svc::EngineMode::kMeanField ? 1 : 0;
    header.players = 4;
    header.sections = 3;
    header.epsilon = 1e-9;
    header.caps_kw = direct.caps_kw();

    std::vector<double> direct_payments;
    {
      JournalWriter writer(file.path, header, FsyncPolicy::kNone);
      util::Rng rng(31);
      for (std::uint64_t i = 0; i < 300; ++i) {
        const auto player = static_cast<std::uint32_t>(i % 4);
        const double kw = rng.uniform(0.0, 120.0);
        direct_payments.push_back(direct.apply(player, kw).payment);
        JournalRecord record;
        record.player = player;
        record.round = i;
        record.total_kw = kw;
        writer.append(record);
      }
      writer.flush();
    }

    // Replay: a fresh engine fed from the journal alone.
    const JournalData data = read_journal(file.path);
    svc::EngineConfig config;
    config.players = data.header.players;
    config.sections = data.header.sections;
    config.epsilon = data.header.epsilon;
    config.caps_kw = data.header.caps_kw;
    config.mode = data.header.mode == 1 ? svc::EngineMode::kMeanField
                                        : svc::EngineMode::kExact;
    svc::PricingEngine replayed(make_cost(), config);
    std::vector<double> replay_payments;
    for (const JournalRecord& record : data.records) {
      replay_payments.push_back(
          replayed.apply(record.player, record.total_kw).payment);
    }
    EXPECT_TRUE(same_bits(replayed.schedule().flat(), direct.schedule().flat()));
    EXPECT_TRUE(same_bits(replay_payments, direct_payments));
  }
}

// --- service-level drain-save / resume / re-attach ---------------------------

struct ServiceRunner {
  ServiceRunner(core::SectionCost cost, svc::ServiceConfig config)
      : service(std::move(cost), config), thread([this] { service.run(); }) {}
  ~ServiceRunner() { stop(); }
  void stop() {
    service.request_stop();
    if (thread.joinable()) thread.join();
  }
  svc::PricingService service;
  std::thread thread;
};

svc::ServiceConfig service_config(std::size_t players, std::size_t sections,
                                  svc::EngineMode mode) {
  svc::ServiceConfig config;
  config.players = players;
  config.sections = sections;
  config.batch_window_s = 0.0005;
  config.engine_mode = mode;
  return config;
}

TEST(Persist, DrainSavesAndResumeRestoresBitExactly) {
  for (const svc::EngineMode mode :
       {svc::EngineMode::kExact, svc::EngineMode::kMeanField}) {
    SCOPED_TRACE(mode == svc::EngineMode::kExact ? "exact" : "meanfield");
    TempPath snap(mode == svc::EngineMode::kExact ? "svc_resume_e.bin"
                                                  : "svc_resume_m.bin");
    svc::ServiceConfig config = service_config(4, 3, mode);
    config.snapshot_path = snap.path;

    std::vector<double> first_flat;
    std::size_t first_updates = 0;
    {
      ServiceRunner runner(make_cost(), config);
      svc::LoadgenConfig load;
      load.port = runner.service.port();
      load.connections = 4;
      load.players = 4;
      load.requests_per_connection = 25;
      load.seed = 12;
      const svc::LoadgenReport report = run_loadgen(load);
      ASSERT_TRUE(report.clean()) << report.to_json();
      runner.stop();  // drain -> snapshot save
      const std::span<const double> flat = runner.service.schedule().flat();
      first_flat.assign(flat.begin(), flat.end());
      first_updates = runner.service.game_updates();
      EXPECT_EQ(runner.service.stats().snapshots_saved, 1u);
      EXPECT_EQ(runner.service.stats().snapshot_save_failures, 0u);
    }
    ASSERT_GT(first_updates, 0u);

    // Resume into a fresh process-equivalent: bit-exact engine state.
    svc::ServiceConfig resumed_config = config;
    resumed_config.resume = true;
    ServiceRunner resumed(make_cost(), resumed_config);
    EXPECT_TRUE(resumed.service.resumed());
    resumed.stop();
    EXPECT_EQ(resumed.service.game_updates(), first_updates);
    EXPECT_TRUE(same_bits(resumed.service.schedule().flat(), first_flat));
  }
}

TEST(Persist, ResumeRejectsShapeMismatch) {
  TempPath snap("svc_resume_shape.bin");
  svc::ServiceConfig config = service_config(4, 3, svc::EngineMode::kExact);
  config.snapshot_path = snap.path;
  {
    ServiceRunner runner(make_cost(), config);
    runner.stop();
  }
  // A 5-player daemon cannot adopt a 4-player snapshot.
  svc::ServiceConfig wrong = service_config(5, 3, svc::EngineMode::kExact);
  wrong.snapshot_path = snap.path;
  wrong.resume = true;
  EXPECT_THROW(svc::PricingService(make_cost(), wrong), std::runtime_error);
  // Same shape, different engine arithmetic: also rejected.
  svc::ServiceConfig wrong_mode = service_config(4, 3, svc::EngineMode::kMeanField);
  wrong_mode.snapshot_path = snap.path;
  wrong_mode.resume = true;
  EXPECT_THROW(svc::PricingService(make_cost(), wrong_mode),
               std::runtime_error);
}

TEST(Persist, ReconnectingPlayerIsGreetedWithSessionResumed) {
  svc::ServiceConfig config = service_config(4, 2, svc::EngineMode::kExact);
  ServiceRunner runner(make_cost(), config);

  net::BeaconMsg beacon;
  beacon.player = 2;
  {
    svc::ServiceClient first =
        svc::ServiceClient::connect("127.0.0.1", runner.service.port());
    first.send(beacon);
    // First binding of the boot: no resume notice expected; prove the
    // session works, then drop the transport.
    net::PowerRequestMsg request;
    request.player = 2;
    request.round = 1;
    request.total_kw = 30.0;
    first.send(request);
    const auto reply = first.recv(5.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_TRUE(std::holds_alternative<net::ScheduleMsg>(*reply));
  }

  svc::ServiceClient second =
      svc::ServiceClient::connect("127.0.0.1", runner.service.port());
  second.send(beacon);
  const auto notice = second.recv(5.0);
  ASSERT_TRUE(notice.has_value());
  const auto* control = std::get_if<net::ControlMsg>(&*notice);
  ASSERT_NE(control, nullptr);
  EXPECT_EQ(control->code, net::ControlCode::kSessionResumed);
  EXPECT_EQ(control->player, 2u);

  runner.stop();
  EXPECT_EQ(runner.service.stats().sessions_resumed, 1u);
}

TEST(Persist, LoadgenReconnectModeStaysCleanAcrossReattach) {
  svc::ServiceConfig config = service_config(8, 4, svc::EngineMode::kExact);
  ServiceRunner runner(make_cost(), config);

  svc::LoadgenConfig load;
  load.port = runner.service.port();
  load.connections = 8;
  load.players = 8;
  load.requests_per_connection = 20;
  load.reconnect = true;
  const svc::LoadgenReport report = run_loadgen(load);
  EXPECT_TRUE(report.clean()) << report.to_json();
  EXPECT_EQ(report.ok, 160u);
  EXPECT_EQ(report.reconnects, 8u);
  EXPECT_GE(report.session_resumed, 8u);

  runner.stop();
  EXPECT_EQ(runner.service.stats().sessions_resumed, 8u);
}

TEST(Persist, ServiceJournalCapturesEveryAdmissionForReplay) {
  TempPath journal("svc_journal.bin");
  svc::ServiceConfig config = service_config(4, 3, svc::EngineMode::kExact);
  config.journal_path = journal.path;
  std::vector<double> served_flat;
  {
    ServiceRunner runner(make_cost(), config);
    svc::LoadgenConfig load;
    load.port = runner.service.port();
    load.connections = 4;
    load.players = 4;
    load.requests_per_connection = 30;
    load.seed = 77;
    const svc::LoadgenReport report = run_loadgen(load);
    ASSERT_TRUE(report.clean()) << report.to_json();
    runner.stop();
    const std::span<const double> flat = runner.service.schedule().flat();
    served_flat.assign(flat.begin(), flat.end());
    EXPECT_EQ(runner.service.stats().journal_records, 120u);
    EXPECT_EQ(runner.service.stats().journal_failures, 0u);
  }

  const JournalData data = read_journal(journal.path);
  EXPECT_FALSE(data.truncated);
  ASSERT_EQ(data.records.size(), 120u);
  // Replaying the journal reproduces the daemon's final schedule bits.
  svc::EngineConfig engine_cfg;
  engine_cfg.players = data.header.players;
  engine_cfg.sections = data.header.sections;
  engine_cfg.epsilon = data.header.epsilon;
  engine_cfg.caps_kw = data.header.caps_kw;
  svc::PricingEngine replayed(make_cost(), engine_cfg);
  for (const JournalRecord& record : data.records) {
    (void)replayed.apply(record.player, record.total_kw);
  }
  EXPECT_TRUE(same_bits(replayed.schedule().flat(), served_flat));
  // Every record carries its trace context (loadgen always sends one).
  for (const JournalRecord& record : data.records) {
    EXPECT_NE(record.trace_id, 0u);
    EXPECT_NE(record.client_send_us, 0);
  }
}

// --- interrupted grid-paced game matches the uninterrupted one ---------------

/// Lockstep best-response player (mirrors tests/test_svc.cc): answers each
/// announcement like core's OlevAgent, leaves on CONVERGED or drain.
struct LockstepClient {
  std::vector<double> final_row;
  double final_payment = 0.0;
  bool saw_converged = false;

  void run(std::uint16_t port, std::uint32_t player, double weight,
           const core::SectionCost& cost) {
    const core::LogSatisfaction satisfaction(weight);
    try {
      svc::ServiceClient client = svc::ServiceClient::connect("127.0.0.1", port);
      net::BeaconMsg beacon;
      beacon.player = player;
      client.send(beacon);
      for (;;) {
        const auto message = client.recv(10.0);
        if (!message) return;
        if (const auto* announcement =
                std::get_if<net::PaymentFunctionMsg>(&*message)) {
          const core::BestResponse response =
              core::best_response(satisfaction, cost,
                                  announcement->others_load_kw, util::kw(200.0));
          net::PowerRequestMsg request;
          request.player = player;
          request.round = announcement->round;
          request.total_kw = response.p_star;
          client.send(request);
        } else if (const auto* schedule =
                       std::get_if<net::ScheduleMsg>(&*message)) {
          final_row = schedule->row_kw;
          final_payment = schedule->payment;
        } else if (const auto* control =
                       std::get_if<net::ControlMsg>(&*message)) {
          if (control->code == net::ControlCode::kConverged) {
            saw_converged = true;
            return;
          }
          if (control->code == net::ControlCode::kDraining) return;
        }
      }
    } catch (const std::exception&) {
      // Connection torn down mid-drain: the phase is over for this client.
    }
  }
};

void run_lockstep_phase(std::uint16_t port, const std::vector<double>& weights,
                        const core::SectionCost& cost,
                        std::vector<LockstepClient>& clients) {
  std::vector<std::thread> threads;
  for (std::size_t n = 0; n < weights.size(); ++n) {
    threads.emplace_back([&, n] {
      clients[n].run(port, static_cast<std::uint32_t>(n), weights[n], cost);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

TEST(Persist, InterruptedGridPacedGameResumesToTheSameFixedPoint) {
  const std::vector<double> weights{10.0, 20.0, 15.0};

  // Reference: the in-process distributed driver on a perfect link.
  std::vector<core::PlayerSpec> players;
  for (const double w : weights) {
    core::PlayerSpec player;
    player.satisfaction = std::make_unique<core::LogSatisfaction>(w);
    player.p_max = util::kw(200.0);
    players.push_back(std::move(player));
  }
  const core::DistributedResult reference = core::run_distributed_game(
      std::move(players), make_cost(), 3);
  ASSERT_TRUE(reference.converged);

  TempPath snap("grid_paced_resume.bin");
  svc::ServiceConfig config = service_config(weights.size(), 3,
                                             svc::EngineMode::kExact);
  config.announce = true;
  config.snapshot_path = snap.path;
  const core::SectionCost cost = make_cost();

  // Phase 1: run the grid-paced game, SIGTERM-equivalent stop mid-flight.
  std::size_t updates_at_interrupt = 0;
  bool converged_early = false;
  {
    ServiceRunner runner(make_cost(), config);
    std::vector<LockstepClient> clients(weights.size());
    std::thread interrupter([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
      runner.service.request_stop();
    });
    run_lockstep_phase(runner.service.port(), weights, cost, clients);
    interrupter.join();
    runner.stop();
    updates_at_interrupt = runner.service.game_updates();
    converged_early = runner.service.game_converged();
    if (converged_early) {
      // The machine outran the interrupter; the uninterrupted contract is
      // already pinned by test_svc.cc, but verify the bits anyway.
      EXPECT_EQ(runner.service.schedule().max_abs_diff(reference.schedule),
                0.0);
    }
  }

  // Phase 2: resume from the snapshot; fresh clients finish the game.
  svc::ServiceConfig resumed_config = config;
  resumed_config.resume = true;
  ServiceRunner resumed(make_cost(), resumed_config);
  EXPECT_TRUE(resumed.service.resumed());
  std::vector<LockstepClient> clients(weights.size());
  if (!converged_early) {
    run_lockstep_phase(resumed.service.port(), weights, cost, clients);
  }
  resumed.stop();

  // The interrupted-and-resumed game lands on the identical fixed point:
  // same update count, same schedule bits, same payments.
  ASSERT_TRUE(resumed.service.game_converged());
  EXPECT_EQ(resumed.service.game_updates(), reference.rounds);
  EXPECT_GE(resumed.service.game_updates(), updates_at_interrupt);
  EXPECT_EQ(resumed.service.schedule().max_abs_diff(reference.schedule), 0.0);
  if (!converged_early) {
    for (std::size_t n = 0; n < weights.size(); ++n) {
      EXPECT_TRUE(clients[n].saw_converged) << "player " << n;
      // A player whose final update landed before the interrupt is not
      // re-announced after resume -- it only sees the CONVERGED broadcast.
      // When phase 2 did serve it a schedule, the bits must match the
      // reference exactly.
      if (clients[n].final_row.empty()) continue;
      EXPECT_EQ(clients[n].final_payment, reference.payments[n])
          << "player " << n;
      ASSERT_EQ(clients[n].final_row.size(), 3u);
      for (std::size_t c = 0; c < 3; ++c) {
        EXPECT_EQ(clients[n].final_row[c], reference.schedule.row(n)[c])
            << "player " << n << " section " << c;
      }
    }
  }
}

}  // namespace
}  // namespace olev::persist
