// Parallel scenario-sweep engine.
//
// The paper's evaluation (Section V, Figs. 5-6) is a grid of *independent*
// equilibrium computations: N x C x velocity x pricing-policy points, each
// one Scenario::build + Game::run.  run_sweep solves such a grid across a
// fixed-size thread pool.
//
// Determinism contract: every scenario is self-seeded (ScenarioConfig::seed
// and GameConfig::seed live inside the spec), each scenario is solved in
// isolation on whichever worker picks it up, and results land at the spec's
// index.  The output is therefore bit-identical to serial execution
// regardless of the thread count (covered by tests/test_sweep.cc).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "obs/metrics.h"

namespace olev::core {

/// One point of a sweep: a label for reporting plus the full scenario
/// configuration (including both seeds).
struct ScenarioSpec {
  std::string label;
  ScenarioConfig config;
};

struct SweepConfig {
  /// Worker threads; 0 means hardware_concurrency.  `threads == 1` runs
  /// inline without spawning a pool.
  std::size_t threads = 0;
  /// When true, overwrites each spec's seeds with streams derived from
  /// `seed_base` and the spec index -- one knob re-seeds a whole grid.
  bool derive_seeds = false;
  std::uint64_t seed_base = 0;
};

struct SweepResult {
  std::size_t index = 0;    ///< position in the input spec list
  std::string label;
  GameResult result;
  double p_line_kw = 0.0;
  double cap_kw = 0.0;
  double beta_lbmp = 0.0;
  double unit_payment_per_mwh = 0.0;
};

/// Solves one spec serially (the unit of work run_sweep fans out).
[[nodiscard]] SweepResult solve_scenario(const ScenarioSpec& spec,
                                         std::size_t index = 0);

/// Solves every spec across the pool; results are ordered like `specs`.
/// The first exception thrown by any scenario is rethrown after all
/// scenarios finish.
[[nodiscard]] std::vector<SweepResult> run_sweep(
    const std::vector<ScenarioSpec>& specs, const SweepConfig& config = {});

/// Per-worker accounting for one sweep run.  `busy_seconds` sums the solve
/// time of the scenarios this worker executed; `utilization` divides it by
/// the sweep's wall time (1.0 = the worker never idled).
struct SweepWorkerStats {
  std::size_t worker = 0;
  std::size_t scenarios = 0;
  double busy_seconds = 0.0;
  double utilization = 0.0;
};

/// Run report for a whole sweep: throughput, convergence, cache
/// effectiveness, per-phase distributions, and worker utilization.  Built
/// deterministically from the per-scenario results (NOT scraped from the
/// global obs registry), so two runs of the same grid produce identical
/// reports modulo timing fields.
struct SweepReport {
  std::size_t scenarios = 0;
  std::size_t threads = 0;
  std::size_t converged = 0;
  std::size_t total_updates = 0;
  double wall_seconds = 0.0;
  double scenarios_per_second = 0.0;
  double section_reuse_ratio = 0.0;  ///< over all scenarios' CacheCounters
  obs::HistogramSnapshot updates_per_scenario;
  obs::HistogramSnapshot solve_millis;  ///< per-scenario solve wall time
  std::vector<SweepWorkerStats> workers;

  /// Wall-time fraction the pool spent solving: sum(busy) / (threads*wall).
  double worker_utilization() const;
  /// Human-readable multi-line rendering (run logs, stderr summaries).
  std::string to_text() const;
};

/// Results plus the run report.
struct SweepRun {
  std::vector<SweepResult> results;
  SweepReport report;
};

/// run_sweep plus per-scenario timing and per-worker accounting.  Results
/// are bit-identical to run_sweep on the same specs/config; only the
/// report's timing fields vary run to run.
[[nodiscard]] SweepRun run_sweep_reported(const std::vector<ScenarioSpec>& specs,
                                          const SweepConfig& config = {});

}  // namespace olev::core
