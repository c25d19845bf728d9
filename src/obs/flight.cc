#include "obs/flight.h"

#include <algorithm>
#include <atomic>

#include "obs/span.h"
#include "obs/strings.h"
#include "util/hot.h"

namespace olev::obs::flight {
namespace {

static_assert((kSlotsPerLane & (kSlotsPerLane - 1)) == 0,
              "kSlotsPerLane must be a power of two (ring mask)");

// One seqlock slot.  seq == 0: never written; odd: write in progress; even
// 2*ticket+2: the payload of `ticket` is committed.  Every field is an
// atomic written relaxed under the Boehm seqlock fence protocol, so the
// layer has no data races even when a reader overlaps a writer.
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> ts_us{0};
  std::atomic<std::uint64_t> event{0};
  std::atomic<std::uint64_t> a{0};
  std::atomic<std::uint64_t> b{0};
};

struct alignas(64) Lane {
  std::atomic<std::uint64_t> head{0};  ///< next ticket (== events recorded)
  Slot slots[kSlotsPerLane];
};

// Constant-initialized globals: no __cxa_guard on first use, which keeps the
// record path inside the static real-time wall (no lock-classed symbols).
constinit Lane g_lanes[kLanes]{};
constinit std::atomic<std::uint64_t> g_next_lane{0};

// Trivially-initialized thread-local lane binding (-1 = unclaimed).  A plain
// int with a constant initializer needs no TLS guard either.
thread_local int t_lane = -1;

}  // namespace

// The record path is its own real-time root: tools/olev_rtcheck.py proves it
// allocation/lock/throw/IO-free both standalone and as reached from the
// engine's apply() root (which records round-convergence events inline).
OLEV_HOT_ROOT("olev::obs::flight::record");

void record(Event event, std::uint64_t a, std::uint64_t b) noexcept {
  if (t_lane < 0) {
    t_lane = static_cast<int>(
        g_next_lane.fetch_add(1, std::memory_order_relaxed) % kLanes);
  }
  Lane& lane = g_lanes[t_lane];
  const std::uint64_t ticket =
      lane.head.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = lane.slots[ticket & (kSlotsPerLane - 1)];
  // Seqlock writer (Boehm, "Can seqlocks get along with programming language
  // memory models?"): odd marks in-progress, the release fence orders the
  // mark before the payload, the final release store publishes.
  slot.seq.store(2 * ticket + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.ts_us.store(static_cast<std::uint64_t>(now_micros()),
                   std::memory_order_relaxed);
  slot.event.store(static_cast<std::uint64_t>(event),
                   std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.seq.store(2 * ticket + 2, std::memory_order_release);
}

std::uint64_t total_recorded() {
  std::uint64_t total = 0;
  for (const Lane& lane : g_lanes) {
    total += lane.head.load(std::memory_order_acquire);
  }
  return total;
}

std::vector<Record> snapshot() {
  std::vector<Record> records;
  records.reserve(kLanes * kSlotsPerLane);
  for (std::uint32_t index = 0; index < kLanes; ++index) {
    const Lane& lane = g_lanes[index];
    const std::uint64_t head = lane.head.load(std::memory_order_acquire);
    const std::uint64_t first =
        head > kSlotsPerLane ? head - kSlotsPerLane : 0;
    for (std::uint64_t ticket = first; ticket < head; ++ticket) {
      const Slot& slot = lane.slots[ticket & (kSlotsPerLane - 1)];
      // Seqlock reader: accept only a stable, committed view of THIS ticket
      // (an overwrite by a newer ticket changes seq and is rejected too).
      const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 != 2 * ticket + 2) continue;  // torn, overwritten, or stale
      Record rec;
      rec.ts_us = static_cast<std::int64_t>(
          slot.ts_us.load(std::memory_order_relaxed));
      rec.event =
          static_cast<Event>(slot.event.load(std::memory_order_relaxed));
      rec.a = slot.a.load(std::memory_order_relaxed);
      rec.b = slot.b.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      const std::uint64_t s2 = slot.seq.load(std::memory_order_relaxed);
      if (s1 != s2) continue;  // writer landed mid-read; drop, don't mix
      rec.seq = ticket;
      rec.lane = index;
      records.push_back(rec);
    }
  }
  std::sort(records.begin(), records.end(),
            [](const Record& lhs, const Record& rhs) {
              if (lhs.ts_us != rhs.ts_us) return lhs.ts_us < rhs.ts_us;
              if (lhs.lane != rhs.lane) return lhs.lane < rhs.lane;
              return lhs.seq < rhs.seq;
            });
  return records;
}

const char* event_name(Event event) {
  switch (event) {
    case Event::kAdmit:
      return "admit";
    case Event::kBatchFire:
      return "batch_fire";
    case Event::kRoundConverge:
      return "round_converge";
    case Event::kBackpressure:
      return "backpressure";
    case Event::kExpire:
      return "expire";
    case Event::kDrain:
      return "drain";
    case Event::kSnapshotSave:
      return "snapshot_save";
    case Event::kSnapshotLoad:
      return "snapshot_load";
    case Event::kSessionResume:
      return "session_resume";
  }
  return "unknown";
}

std::string to_json(const std::vector<Record>& records) {
  JsonWriter json;
  json.begin_object();
  json.key("recorded").value(total_recorded());
  json.key("returned").value(records.size());
  json.key("events").begin_array();
  for (const Record& rec : records) {
    json.begin_object();
    json.key("ts_us").value(rec.ts_us);
    json.key("lane").value(rec.lane);
    json.key("seq").value(rec.seq);
    json.key("event").value(event_name(rec.event));
    json.key("a").value(rec.a);
    json.key("b").value(rec.b);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return std::move(json).str();
}

void reset() {
  for (Lane& lane : g_lanes) {
    lane.head.store(0, std::memory_order_relaxed);
    for (Slot& slot : lane.slots) {
      slot.seq.store(0, std::memory_order_relaxed);
      slot.ts_us.store(0, std::memory_order_relaxed);
      slot.event.store(0, std::memory_order_relaxed);
      slot.a.store(0, std::memory_order_relaxed);
      slot.b.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace olev::obs::flight
