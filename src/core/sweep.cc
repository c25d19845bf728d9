#include "core/sweep.h"

#include <algorithm>
#include <cstdio>

#include "obs/obs.h"
#include "obs/report.h"
#include "obs/span.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace olev::core {

SweepResult solve_scenario(const ScenarioSpec& spec, std::size_t index) {
  OLEV_OBS_SPAN_LABELED(scenario_span, "sweep.solve_scenario", "sweep",
                        spec.label);
  OLEV_OBS_COUNTER(obs_scenarios, "core.sweep.scenarios");
  OLEV_OBS_ADD(obs_scenarios, 1);

  const Scenario scenario = [&] {
    OLEV_OBS_SPAN(build_span, "scenario.build", "sweep");
    return Scenario::build(spec.config);
  }();

  SweepResult out;
  out.index = index;
  out.label = spec.label;
  if (spec.config.solver == SolverKind::kMeanField) {
    MeanFieldGame game = scenario.make_mean_field();
    out.result = game.to_game_result(game.run());
  } else {
    Game game = scenario.make_game();
    out.result = game.run();
  }
  out.p_line_kw = scenario.p_line_kw();
  out.cap_kw = scenario.cap_kw();
  out.beta_lbmp = scenario.beta_lbmp();
  out.unit_payment_per_mwh = Scenario::unit_payment_per_mwh(out.result);
  OLEV_OBS_SPAN_ARG(scenario_span, "updates",
                    static_cast<double>(out.result.updates));
  OLEV_OBS_SPAN_ARG(scenario_span, "converged",
                    out.result.converged ? 1.0 : 0.0);
  return out;
}

namespace {

// Applies SweepConfig::derive_seeds; returns the spec list to solve (either
// the caller's or the reseeded copy in `storage`).
const std::vector<ScenarioSpec>* effective_specs(
    const std::vector<ScenarioSpec>& specs, const SweepConfig& config,
    std::vector<ScenarioSpec>& storage) {
  if (!config.derive_seeds) return &specs;
  storage = specs;
  for (std::size_t i = 0; i < storage.size(); ++i) {
    storage[i].config.seed = util::derive_seed(config.seed_base, i);
    storage[i].config.game.seed =
        util::derive_seed(config.seed_base ^ 0x736565702d67616dULL, i);
  }
  return &storage;
}

struct ScenarioTiming {
  double seconds = 0.0;
  std::size_t worker = 0;
};

// The shared sweep core: solves every spec across the pool, optionally
// recording per-scenario timings (run_sweep passes nullptr and pays
// nothing; run_sweep_reported feeds its report from them).
std::vector<SweepResult> run_sweep_impl(const std::vector<ScenarioSpec>& specs,
                                        const SweepConfig& config,
                                        std::size_t& threads_out,
                                        std::vector<ScenarioTiming>* timings) {
  std::vector<ScenarioSpec> reseeded;
  const std::vector<ScenarioSpec>* work =
      effective_specs(specs, config, reseeded);

  std::vector<SweepResult> results(work->size());
  if (timings != nullptr) timings->assign(work->size(), {});
  const std::size_t threads = std::min(
      util::resolve_threads(config.threads),
      std::max<std::size_t>(1, work->size()));
  threads_out = threads;

  const auto solve_one = [&](std::size_t i) {
    if (timings == nullptr) {
      results[i] = solve_scenario((*work)[i], i);
      return;
    }
    const obs::Stopwatch watch;
    results[i] = solve_scenario((*work)[i], i);
    const std::size_t worker = util::ThreadPool::worker_index();
    (*timings)[i] = {watch.seconds(),
                     worker == util::ThreadPool::npos ? 0 : worker};
  };

  if (threads <= 1) {
    for (std::size_t i = 0; i < work->size(); ++i) solve_one(i);
    return results;
  }

  util::ThreadPool pool(threads);
  pool.parallel_for(work->size(), solve_one);
  return results;
}

}  // namespace

std::vector<SweepResult> run_sweep(const std::vector<ScenarioSpec>& specs,
                                   const SweepConfig& config) {
  std::size_t threads = 0;
  return run_sweep_impl(specs, config, threads, nullptr);
}

SweepRun run_sweep_reported(const std::vector<ScenarioSpec>& specs,
                            const SweepConfig& config) {
  SweepRun run;
  OLEV_OBS_SPAN(sweep_span, "sweep.run", "sweep");
  std::vector<ScenarioTiming> timings;
  const obs::Stopwatch wall;
  std::size_t threads = 0;
  run.results = run_sweep_impl(specs, config, threads, &timings);
  const double wall_seconds = wall.seconds();

  SweepReport& report = run.report;
  report.scenarios = run.results.size();
  report.threads = threads;
  report.wall_seconds = wall_seconds;
  report.scenarios_per_second =
      wall_seconds > 0.0
          ? static_cast<double>(run.results.size()) / wall_seconds
          : 0.0;

  CacheCounters caches;
  std::vector<double> updates;
  std::vector<double> solve_millis;
  updates.reserve(run.results.size());
  solve_millis.reserve(run.results.size());
  report.workers.assign(threads, {});
  for (std::size_t w = 0; w < threads; ++w) report.workers[w].worker = w;
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    const SweepResult& result = run.results[i];
    if (result.result.converged) ++report.converged;
    report.total_updates += result.result.updates;
    caches.section_cost_reuses += result.result.caches.section_cost_reuses;
    caches.section_cost_refreshes += result.result.caches.section_cost_refreshes;
    updates.push_back(static_cast<double>(result.result.updates));
    solve_millis.push_back(timings[i].seconds * 1e3);
    SweepWorkerStats& worker = report.workers[
        std::min(timings[i].worker, threads - 1)];
    ++worker.scenarios;
    worker.busy_seconds += timings[i].seconds;
  }
  report.section_reuse_ratio = caches.section_reuse_ratio();
  for (SweepWorkerStats& worker : report.workers) {
    worker.utilization =
        wall_seconds > 0.0 ? worker.busy_seconds / wall_seconds : 0.0;
  }
  report.updates_per_scenario =
      obs::bucketize("sweep.updates_per_scenario",
                     {10, 30, 100, 300, 1000, 3000, 10000, 100000}, updates);
  report.solve_millis = obs::bucketize(
      "sweep.solve_millis", {0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000, 10000},
      solve_millis);

  OLEV_OBS_SPAN_ARG(sweep_span, "scenarios",
                    static_cast<double>(report.scenarios));
  OLEV_OBS_SPAN_ARG(sweep_span, "threads", static_cast<double>(threads));
  return run;
}

double SweepReport::worker_utilization() const {
  if (threads == 0 || wall_seconds <= 0.0) return 0.0;
  double busy = 0.0;
  for (const SweepWorkerStats& worker : workers) busy += worker.busy_seconds;
  return busy / (static_cast<double>(threads) * wall_seconds);
}

std::string SweepReport::to_text() const {
  char line[160];
  std::string text;
  std::snprintf(line, sizeof(line),
                "sweep: %zu scenarios on %zu threads in %.3f s (%.1f/s)\n",
                scenarios, threads, wall_seconds, scenarios_per_second);
  text += line;
  std::snprintf(line, sizeof(line),
                "  converged %zu/%zu, %zu total updates\n", converged,
                scenarios, total_updates);
  text += line;
  std::snprintf(line, sizeof(line),
                "  caches: section reuse %.1f%%\n",
                100.0 * section_reuse_ratio);
  text += line;
  std::snprintf(line, sizeof(line), "  pool utilization %.1f%%\n",
                100.0 * worker_utilization());
  text += line;
  for (const SweepWorkerStats& worker : workers) {
    std::snprintf(line, sizeof(line),
                  "    worker %zu: %zu scenarios, busy %.3f s (%.1f%%)\n",
                  worker.worker, worker.scenarios, worker.busy_seconds,
                  100.0 * worker.utilization);
    text += line;
  }
  const auto histogram_line = [&](const obs::HistogramSnapshot& histogram) {
    std::snprintf(line, sizeof(line), "  %s: count %zu, mean %.2f\n",
                  histogram.name.c_str(),
                  static_cast<std::size_t>(histogram.count), histogram.mean());
    text += line;
  };
  histogram_line(updates_per_scenario);
  histogram_line(solve_millis);
  return text;
}

}  // namespace olev::core
