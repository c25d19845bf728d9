// Durable-state-plane cost model: snapshot save/load latency and journal
// append throughput as the engine grows (docs/PERSISTENCE.md).
//
// The numbers bound the two operational questions the persist layer raises:
// how long a SIGTERM drain stalls on its final snapshot (save path: encode +
// CRC + atomic tmp/fsync/rename), and how much of the serving loop a
// --journal daemon spends recording admissions (append path: 48 bytes into a
// pre-reserved buffer; the flush amortizes).  The persist.* layer metrics of
// perfbench's traced serve_exact run (perfbench/README.md) are what is
// compared across commits.
//
//   $ ./bench_persist

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/span.h"
#include "persist/journal.h"
#include "persist/snapshot.h"
#include "util/csv.h"
#include "util/rng.h"

namespace {

using namespace olev;

constexpr std::uint64_t kJournalRecords = 200'000;

struct Shape {
  std::size_t players;
  std::size_t sections;
};

struct Point {
  Shape shape{};
  double snapshot_bytes = 0.0;
  double save_us = 0.0;
  double load_us = 0.0;
  double append_ns = 0.0;   ///< mean per-record append cost (buffered)
  double journal_mb_s = 0.0;  ///< sustained append+flush throughput
};

persist::ServiceSnapshot make_snapshot(const Shape& shape, util::Rng& rng) {
  persist::ServiceSnapshot snapshot;
  snapshot.engine.players = shape.players;
  snapshot.engine.sections = shape.sections;
  snapshot.engine.epsilon = 1e-7;
  snapshot.engine.caps_kw.assign(shape.players, 40.0);
  snapshot.engine.schedule_kw.resize(shape.players * shape.sections);
  for (double& cell : snapshot.engine.schedule_kw) {
    cell = rng.uniform(0.0, 40.0);
  }
  snapshot.engine.updates = shape.players * 3;
  snapshot.engine.residual = 0.125;
  snapshot.announcing_started = 1;
  for (std::size_t n = 0; n < shape.players; n += 2) {
    snapshot.bound_players.push_back(static_cast<std::uint32_t>(n));
  }
  return snapshot;
}

Point run_shape(const Shape& shape, const std::string& dir) {
  util::Rng rng(17);
  Point point;
  point.shape = shape;
  const persist::ServiceSnapshot snapshot = make_snapshot(shape, rng);
  const std::string snap_path = dir + "/bench_persist_snap.bin";
  const std::string journal_path = dir + "/bench_persist_journal.bin";

  // Snapshot save/load: median of 5 (the fsync dominates and jitters).
  std::vector<double> saves, loads;
  for (int i = 0; i < 5; ++i) {
    const obs::Stopwatch save_watch;
    persist::save(snap_path, snapshot);
    saves.push_back(save_watch.seconds() * 1e6);
    const obs::Stopwatch load_watch;
    const persist::ServiceSnapshot loaded = persist::load(snap_path);
    loads.push_back(load_watch.seconds() * 1e6);
    if (!(loaded == snapshot)) {
      throw std::runtime_error("bench_persist: snapshot round trip diverged");
    }
  }
  std::sort(saves.begin(), saves.end());
  std::sort(loads.begin(), loads.end());
  point.save_us = saves[saves.size() / 2];
  point.load_us = loads[loads.size() / 2];
  point.snapshot_bytes =
      static_cast<double>(persist::read_file(snap_path).size());

  // Journal: sustained append throughput, buffer + stdio amortized, one
  // explicit flush at the end (the drain-path sequence).
  persist::JournalHeader header;
  header.players = shape.players;
  header.sections = shape.sections;
  header.epsilon = 1e-7;
  header.caps_kw.assign(shape.players, 40.0);
  persist::JournalRecord record;
  record.ts_us = 1'000'000;
  record.client_send_us = 999'000;
  {
    persist::JournalWriter writer(journal_path, header,
                                  persist::FsyncPolicy::kOnFlush);
    const obs::Stopwatch append_watch;
    for (std::uint64_t i = 0; i < kJournalRecords; ++i) {
      record.player = static_cast<std::uint32_t>(i % shape.players);
      record.round = i;
      record.total_kw = rng.uniform(0.0, 120.0);
      record.trace_id = i + 1;
      writer.append(record);
    }
    writer.flush();
    const double seconds = append_watch.seconds();
    point.append_ns = seconds * 1e9 / static_cast<double>(kJournalRecords);
    point.journal_mb_s =
        static_cast<double>(kJournalRecords * persist::kJournalRecordBytes) /
        (seconds * 1e6);
  }

  std::remove(snap_path.c_str());
  std::remove(journal_path.c_str());
  return point;
}

}  // namespace

int main() {
  const std::vector<Shape> shapes{{64, 16}, {256, 32}, {1024, 64}, {4096, 64}};
  const char* tmp = std::getenv("TMPDIR");
  const std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";

  std::vector<Point> points;
  points.reserve(shapes.size());
  for (const Shape& shape : shapes) {
    points.push_back(run_shape(shape, dir));
  }

  util::Table table({"players", "sections", "snapshot_bytes", "save_us",
                     "load_us", "append_ns", "journal_mb_s"});
  for (const Point& p : points) {
    table.add_row_numeric({static_cast<double>(p.shape.players),
                           static_cast<double>(p.shape.sections),
                           p.snapshot_bytes, p.save_us, p.load_us, p.append_ns,
                           p.journal_mb_s});
  }
  bench::emit(table, "bench_persist");

  return 0;
}
