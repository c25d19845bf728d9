// Versioned engine/service snapshots: the durable half of olevd's
// zero-downtime restart (docs/PERSISTENCE.md).
//
// A ServiceSnapshot is everything the grid controller must remember to
// resume a half-converged pricing round exactly where SIGTERM interrupted
// it: the engine's schedule matrix and convergence bookkeeping (announce
// cursor = updates mod players, round, residual, converged flag, the
// mean-field aggregate), plus the protocol state of the grid-paced session
// (which players were bound, whether announcements had started, whether
// CONVERGED was already broadcast).
//
// Doubles are stored as raw IEEE-754 bit patterns (persist::Writer::f64),
// so save -> load -> save is bit-identical -- the property that lets
// tests/test_persist.cc pin a resumed session's ScheduleMsg stream equal
// to an uninterrupted run's, bit for bit.
//
// save() is called from PricingService::begin_drain() AFTER the last
// admitted request is answered -- a cold path, off every rtcheck-audited
// hot root -- and writes via write_file_atomic (tmp + fsync + rename), so
// a crash mid-save leaves the previous snapshot intact.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace olev::persist {

/// PricingEngine state (src/core/pricing_engine.h), engine-layer fields only.
struct EngineSnapshot {
  std::uint8_t mode = 0;  ///< 0 = exact, 1 = mean-field (EngineMode order)
  std::uint64_t players = 0;
  std::uint64_t sections = 0;
  double epsilon = 0.0;
  std::vector<double> caps_kw;       ///< resolved per-player caps (size N)
  std::vector<double> schedule_kw;   ///< row-major N x C matrix
  std::uint64_t updates = 0;         ///< announce cursor = updates % players
  double residual = 0.0;             ///< cycle_max_delta_ at save time
  std::uint8_t converged = 0;
  double total_load_kw = 0.0;        ///< mean-field running aggregate T

  bool operator==(const EngineSnapshot&) const = default;
};

/// Engine state + the grid-paced protocol state olevd layers on top.
struct ServiceSnapshot {
  EngineSnapshot engine;
  std::uint8_t announcing_started = 0;
  std::uint8_t converged_broadcast = 0;
  /// Players bound at save time; a re-binding one of these after resume is
  /// greeted with ControlCode::kSessionResumed instead of silence.
  std::vector<std::uint32_t> bound_players;

  bool operator==(const ServiceSnapshot&) const = default;
};

/// Serializes to a BlobKind::kSnapshot payload (no frame).
std::vector<std::uint8_t> encode(const ServiceSnapshot& snapshot);

/// Parses an encode() payload; throws std::runtime_error on corruption
/// (bad lengths, schedule size disagreeing with players * sections, ...).
ServiceSnapshot decode(std::span<const std::uint8_t> payload);

/// Frames + atomically writes the snapshot; records the snapshot_save
/// flight event and the persist.snapshot.{bytes,save_us} metrics.  A
/// snapshot past the decode bounds (kMaxVectorEntries, kDefaultMaxPayloadBytes)
/// throws std::runtime_error before anything is written, so a file at `path`
/// is left as it was.
void save(const std::string& path, const ServiceSnapshot& snapshot);

/// Reads + validates + parses; records snapshot_load and
/// persist.snapshot.load_us.  Throws std::runtime_error on any failure.
ServiceSnapshot load(const std::string& path);

}  // namespace olev::persist
