#include "persist/snapshot.h"

#include <stdexcept>

#include "obs/flight.h"
#include "obs/obs.h"
#include "obs/span.h"
#include "persist/codec.h"

namespace olev::persist {

std::vector<std::uint8_t> encode(const ServiceSnapshot& snapshot) {
  Writer w;
  const EngineSnapshot& engine = snapshot.engine;
  w.u8(engine.mode);
  w.u64(engine.players);
  w.u64(engine.sections);
  w.f64(engine.epsilon);
  w.f64_vector(engine.caps_kw);
  w.f64_vector(engine.schedule_kw);
  w.u64(engine.updates);
  w.f64(engine.residual);
  w.u8(engine.converged);
  w.f64(engine.total_load_kw);
  w.u8(snapshot.announcing_started);
  w.u8(snapshot.converged_broadcast);
  w.u32_vector(snapshot.bound_players);
  return w.take();
}

ServiceSnapshot decode(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  ServiceSnapshot snapshot;
  EngineSnapshot& engine = snapshot.engine;
  engine.mode = r.u8();
  engine.players = r.u64();
  engine.sections = r.u64();
  engine.epsilon = r.f64();
  engine.caps_kw = r.f64_vector(kMaxVectorEntries);
  engine.schedule_kw = r.f64_vector(kMaxVectorEntries);
  engine.updates = r.u64();
  engine.residual = r.f64();
  engine.converged = r.u8();
  engine.total_load_kw = r.f64();
  snapshot.announcing_started = r.u8();
  snapshot.converged_broadcast = r.u8();
  snapshot.bound_players = r.u32_vector(kMaxVectorEntries);
  if (!r.exhausted()) {
    throw std::runtime_error("persist: trailing bytes in snapshot payload");
  }
  // Cross-field consistency: the CRC already vouches for transport
  // integrity, so these catch an encoder bug (or a hand-crafted blob), not
  // line noise.
  if (engine.mode > 1) {
    throw std::runtime_error("persist: snapshot engine mode out of range");
  }
  if (engine.players == 0 || engine.sections == 0) {
    throw std::runtime_error("persist: snapshot players/sections zero");
  }
  if (engine.caps_kw.size() != engine.players) {
    throw std::runtime_error("persist: snapshot caps size != players");
  }
  if (engine.schedule_kw.size() != engine.players * engine.sections) {
    throw std::runtime_error("persist: snapshot schedule size mismatch");
  }
  for (const std::uint32_t player : snapshot.bound_players) {
    if (player >= engine.players) {
      throw std::runtime_error("persist: snapshot bound player out of range");
    }
  }
  return snapshot;
}

void save(const std::string& path, const ServiceSnapshot& snapshot) {
  const obs::Stopwatch wall;
  const std::vector<std::uint8_t> payload = encode(snapshot);
  const std::vector<std::uint8_t> blob = encode_blob(BlobKind::kSnapshot, payload);
  write_file_atomic(path, blob);
  const auto elapsed_us = static_cast<std::uint64_t>(wall.seconds() * 1e6);
  obs::flight::record(obs::flight::Event::kSnapshotSave, payload.size(),
                      elapsed_us);
  OLEV_OBS_ONLY({
    OLEV_OBS_GAUGE(bytes, "persist.snapshot.bytes");
    OLEV_OBS_SET(bytes, static_cast<double>(blob.size()));
    OLEV_OBS_GAUGE(save_us, "persist.snapshot.save_us");
    OLEV_OBS_SET(save_us, static_cast<double>(elapsed_us));
  });
}

ServiceSnapshot load(const std::string& path) {
  const obs::Stopwatch wall;
  const std::vector<std::uint8_t> blob = read_file(path);
  const std::vector<std::uint8_t> payload =
      decode_blob(BlobKind::kSnapshot, blob);
  ServiceSnapshot snapshot = decode(payload);
  const auto elapsed_us = static_cast<std::uint64_t>(wall.seconds() * 1e6);
  obs::flight::record(obs::flight::Event::kSnapshotLoad, payload.size(),
                      elapsed_us);
  OLEV_OBS_ONLY({
    OLEV_OBS_GAUGE(bytes, "persist.snapshot.bytes");
    OLEV_OBS_SET(bytes, static_cast<double>(blob.size()));
    OLEV_OBS_GAUGE(load_us, "persist.snapshot.load_us");
    OLEV_OBS_SET(load_us, static_cast<double>(elapsed_us));
  });
  return snapshot;
}

}  // namespace olev::persist
