// Throughput benchmark for the parallel scenario-sweep engine.
//
// Solves a Fig. 5-style grid of independent equilibria (N x C x velocity)
// at 1, 2, 4 and hardware_concurrency threads, reports scenarios/sec and
// speedup over serial, checks that every thread count reproduces the serial
// results bit-for-bit, and measures the incremental best-response hot path
// (updates/sec and cache-counter totals on a 50x100 game).
//
// Exits 1 when a thread count disagrees with the serial results.  Besides
// 1, 2 and 4 threads it sweeps the affinity-aware
// util::available_concurrency() (std::thread::hardware_concurrency()
// reports the whole machine inside pinned CI runners).  Timings are
// printed, not recorded: solver speed is compared across commits by
// perfbench's solve_paper workload and its traced core.update_ns
// (perfbench/README.md).

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench_util.h"

#include "core/sweep.h"
#include "core/trace.h"
#include "obs/report.h"
#include "util/csv.h"
#include "util/sysinfo.h"

namespace {

using namespace olev;
using Clock = std::chrono::steady_clock;

std::vector<core::ScenarioSpec> fig5_grid() {
  std::vector<core::ScenarioSpec> specs;
  for (double velocity : {60.0, 80.0}) {
    for (std::size_t olevs : {10u, 20u, 30u, 40u, 50u}) {
      for (std::size_t sections : {10u, 40u, 70u, 100u}) {
        core::ScenarioSpec spec;
        core::ScenarioConfig& config = spec.config;
        config.num_olevs = olevs;
        config.num_sections = sections;
        config.velocity = olev::util::mph(velocity);
        config.beta_lbmp = olev::util::Price::per_mwh(16.0);
        config.target_degree = 0.9;
        config.calibration_players = 30;
        config.calibration_sections = 50;
        config.seed = 0x5eed;
        config.game.max_updates = 40000;
        specs.push_back(std::move(spec));
      }
    }
  }
  return specs;
}

bool identical(const std::vector<core::SweepResult>& a,
               const std::vector<core::SweepResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].result.schedule.flat().size() != b[i].result.schedule.flat().size())
      return false;
    for (std::size_t k = 0; k < a[i].result.schedule.flat().size(); ++k) {
      if (a[i].result.schedule.flat()[k] != b[i].result.schedule.flat()[k])
        return false;
    }
    if (a[i].result.welfare != b[i].result.welfare) return false;
    if (a[i].result.updates != b[i].result.updates) return false;
  }
  return true;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main() {
  // OLEV_TRACE=<path> captures a Perfetto trace of the whole run (one lane
  // per sweep worker); OLEV_METRICS=<path> a registry snapshot;
  // OLEV_SWEEP_REPORT=<path> the last sweep's run report as JSON.
  olev::obs::EnvSession obs_session;

  const auto specs = fig5_grid();
  const std::size_t hw = olev::util::available_concurrency();
  std::cout << "sweep: " << specs.size()
            << " independent equilibria (Fig. 5-style grid), available "
               "concurrency "
            << hw << "\n\n";

  std::vector<std::size_t> thread_counts{1, 2, 4};
  if (hw != 1 && hw != 2 && hw != 4) thread_counts.push_back(hw);

  util::Table table({"threads", "seconds", "scenarios_per_sec", "speedup_x",
                     "bit_identical"});
  std::vector<core::SweepResult> reference;
  double serial_seconds = 0.0;
  bool all_identical = true;
  core::SweepReport last_report;
  for (std::size_t threads : thread_counts) {
    core::SweepConfig config;
    config.threads = threads;
    const auto start = Clock::now();
    core::SweepRun run = core::run_sweep_reported(specs, config);
    const double elapsed = seconds_since(start);
    auto results = std::move(run.results);
    last_report = std::move(run.report);
    bool matches = true;
    if (threads == 1) {
      serial_seconds = elapsed;
      reference = std::move(results);
    } else {
      matches = identical(reference, results);
      all_identical = all_identical && matches;
    }
    table.add_row({std::to_string(threads), util::fmt(elapsed, 3),
                   util::fmt(static_cast<double>(specs.size()) / elapsed, 2),
                   util::fmt(serial_seconds / elapsed, 2),
                   matches ? "yes" : "NO"});
  }
  bench::emit(table, "sweep_throughput");
  std::cout << (all_identical
                    ? "determinism: every thread count reproduced the serial "
                      "results bit-for-bit\n\n"
                    : "DETERMINISM VIOLATION: thread counts disagree\n\n");

  // Run report of the last (widest) sweep: worker utilization, cache
  // ratios, per-scenario update/solve-time histograms.
  std::cout << last_report.to_text() << "\n";
  if (const char* report_path = std::getenv("OLEV_SWEEP_REPORT")) {
    core::save_json(last_report, report_path);
    std::cout << "[sweep report saved to " << report_path << "]\n";
  }

  // Incremental hot path: per-update cost and cache behavior on the paper's
  // largest configuration (N = 50, C = 100).
  core::ScenarioConfig big;
  big.num_olevs = 50;
  big.num_sections = 100;
  big.beta_lbmp = olev::util::Price::per_mwh(16.0);
  big.target_degree = 0.9;
  big.seed = 0x5eed;
  big.game.max_updates = 5000;
  big.game.epsilon = 0.0;  // force all updates: measures steady-state cost
  const core::Scenario scenario = core::Scenario::build(big);
  core::Game game = scenario.make_game();
  const auto start = Clock::now();
  const core::GameResult result = game.run();
  const double game_seconds = seconds_since(start);
  const double updates_per_sec =
      static_cast<double>(result.updates) / game_seconds;
  std::cout << "hot path (N=50, C=100): " << result.updates << " updates in "
            << util::fmt(game_seconds, 3) << " s = "
            << util::fmt(updates_per_sec, 0) << " updates/sec\n"
            << "cache counters: best-response hits "
            << result.caches.response_cache_hits << ", recomputes "
            << result.caches.response_recomputes << ", section-cost reuses "
            << result.caches.section_cost_reuses << ", refreshes "
            << result.caches.section_cost_refreshes << "\n";
  return all_identical ? 0 : 1;
}
