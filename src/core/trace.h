// Experiment trace export: serializes game outcomes (including per-update
// trajectories) as JSON so results can be re-plotted or diffed without
// re-running the binaries.
#pragma once

#include <string>

#include "core/game.h"
#include "core/sweep.h"

namespace olev::core {

/// Full GameResult as a JSON object: config-independent outcome fields,
/// per-player vectors, per-section loads, and (when recorded) the
/// trajectory of (update, player, request, welfare, congestion).
std::string to_json(const GameResult& result);

/// Writes to_json(result) to `path`; throws std::runtime_error naming the
/// path and errno on failure.
void save_json(const GameResult& result, const std::string& path);

/// SweepReport as a JSON object: throughput and convergence scalars,
/// cache ratios, per-worker utilization, and the per-scenario
/// updates/solve-time histograms (bounds + counts, obs edge semantics).
std::string to_json(const SweepReport& report);

/// Writes to_json(report) to `path`; throws std::runtime_error naming the
/// path and errno on failure.
void save_json(const SweepReport& report, const std::string& path);

}  // namespace olev::core
