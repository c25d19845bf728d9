// solve_paper: the Figs. 5-6 equilibria, offline, on one thread.
//
// Input is the 40-scenario grid bench_sweep solves -- N in {10..50} x C in
// {10..100} x v in {60, 80} mph, nonlinear pricing, beta = 16 $/MWh, target
// degree 0.9, calibration at (30, 50), scenario seed 0x5eed.  The workload
// seed shuffles the order the scenarios are solved in, so every seed does
// the same work.  core does all the work and svc/net/persist none, so
// solver-kernel changes show here and serving changes must leave it flat.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/central.h"
#include "core/game.h"
#include "core/scenario.h"
#include "util/quantity.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace olev;

/// Theorem IV.1: the game's fixed point attains the welfare optimum.  The
/// centralized oracle and the game agree to ~1e-13 relative on this grid.
constexpr double kWelfareTolerance = 1e-9;

std::vector<core::ScenarioConfig> paper_grid(std::uint64_t seed) {
  constexpr std::uint64_t kScenarioSeed = 0x5eed;  // bench_sweep's
  std::vector<core::ScenarioConfig> configs;
  for (double velocity : {60.0, 80.0}) {
    for (std::size_t olevs : {10u, 20u, 30u, 40u, 50u}) {
      for (std::size_t sections : {10u, 40u, 70u, 100u}) {
        core::ScenarioConfig config;
        config.num_olevs = olevs;
        config.num_sections = sections;
        config.velocity = util::mph(velocity);
        config.beta_lbmp = util::Price::per_mwh(16.0);
        config.target_degree = 0.9;
        config.calibration_players = 30;
        config.calibration_sections = 50;
        config.seed = kScenarioSeed;
        config.game.max_updates = 40000;
        configs.push_back(config);
      }
    }
  }
  util::Rng rng(seed);
  for (std::size_t i = configs.size() - 1; i > 0; --i) {
    const auto j = rng.uniform_int(0, static_cast<std::int64_t>(i));
    std::swap(configs[i], configs[static_cast<std::size_t>(j)]);
  }
  return configs;
}

bool identical(const core::GameResult& a, const core::GameResult& b) {
  return a.converged == b.converged && a.updates == b.updates &&
         same_bits(a.schedule.flat(), b.schedule.flat()) &&
         same_bits({&a.welfare, 1}, {&b.welfare, 1});
}

}  // namespace

Report run_solve_paper(const Options& options, Tracer* tracer) {
  Report report;
  Lane* lane = tracer != nullptr ? &tracer->lane("solve_paper") : nullptr;
  const std::vector<core::ScenarioConfig> configs = paper_grid(options.seed);

  // Set-up: build all 40 scenarios, then one untimed warm-up pass whose
  // results are the reference every timed pass must reproduce bit for bit.
  std::vector<core::Scenario> scenarios;
  std::vector<core::GameResult> reference;
  std::vector<double> setup_s;
  std::vector<double> build_us;
  for (int repetition = 0; repetition < kSetups; ++repetition) {
    const std::int64_t start = now_ns();
    Scope setup_span(lane, "solve_paper.setup");
    scenarios.clear();
    reference.clear();
    for (const core::ScenarioConfig& config : configs) {
      Scope span(lane, "core.Scenario::build", setup_span.index());
      scenarios.push_back(core::Scenario::build(config));
    }
    build_us.push_back(ns_to_us(now_ns() - start));
    for (const core::Scenario& scenario : scenarios) {
      core::Game game = scenario.make_game();
      reference.push_back(game.run());
    }
    setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (!reference[i].converged) {
      report.fail("scenario " + std::to_string(i) + " did not converge");
    }
  }

  // Timed window: passes over the 40 scenarios, each solved by a fresh Game.
  Series pass_us;
  std::vector<core::GameResult> results(scenarios.size());
  pass_us.origin_ns = now_ns();
  const std::int64_t deadline =
      pass_us.origin_ns + static_cast<std::int64_t>(options.seconds * 1e9);
  while (now_ns() < deadline) {
    const std::int64_t start = now_ns();
    {
      Scope pass_span(lane, "solve_paper.pass");
      for (std::size_t i = 0; i < scenarios.size(); ++i) {
        Scope solve_span(lane, "core.Game::run", pass_span.index());
        core::Game game = scenarios[i].make_game();
        results[i] = game.run();
      }
    }
    const std::int64_t end = now_ns();
    pass_us.add(end, ns_to_us(end - start));
    ++report.attempted;
    bool pass_ok = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
      pass_ok = pass_ok && results[i].converged &&
                identical(results[i], reference[i]);
    }
    if (!pass_ok) {
      ++report.failed;
      report.fail("pass " + std::to_string(report.attempted) +
                  " is not bit-identical to the reference pass");
    }
  }

  // Theorem IV.1 gate: every equilibrium's welfare is the centralized optimum.
  double worst_gap = 0.0;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const core::Scenario& scenario = scenarios[i];
    const auto players = scenario.clone_satisfactions();
    const core::CentralResult central = core::maximize_welfare(
        players, scenario.p_max(), scenario.cost(),
        scenario.config().num_sections);
    const double gap = std::abs(reference[i].welfare - central.welfare) /
                       std::max(1.0, std::abs(central.welfare));
    worst_gap = std::max(worst_gap, gap);
  }
  if (!(worst_gap <= kWelfareTolerance)) {
    report.fail("welfare gap to the centralized optimum " + fmt(worst_gap) +
                " exceeds " + fmt(kWelfareTolerance));
  }
  report.note("welfare_worst_relative_gap", fmt(worst_gap));

  report.end_to_end(pass_us, static_cast<double>(scenarios.size()));
  report.metric("setup_s", median(setup_s));

  if (tracer != nullptr) {
    report.metric("core.build_us", median(build_us));
    std::vector<double> solve_us = tracer->durations_us("core.Game::run");
    report.percentiles("core.solve", solve_us);
    double updates = 0.0, hits = 0.0, lookups = 0.0, reuses = 0.0, cells = 0.0;
    for (const core::GameResult& result : reference) {
      updates += static_cast<double>(result.updates);
      hits += static_cast<double>(result.caches.response_cache_hits);
      lookups += static_cast<double>(result.caches.response_cache_hits +
                                     result.caches.response_recomputes);
      reuses += static_cast<double>(result.caches.section_cost_reuses);
      cells += static_cast<double>(result.caches.section_cost_reuses +
                                   result.caches.section_cost_refreshes);
    }
    const double solves = static_cast<double>(reference.size());
    double solve_total_us = 0.0;
    for (double us : solve_us) solve_total_us += us;
    report.metric("core.updates_per_solve", updates / solves);
    report.metric("core.update_ns",
                  solve_total_us * 1e3 /
                      (updates * static_cast<double>(report.attempted)));
    report.metric("core.response_hit_ratio",
                  lookups > 0 ? hits / lookups : 0.0);
    report.metric("core.response_lookups_per_solve", lookups / solves);
    report.metric("core.section_reuse_ratio", cells > 0 ? reuses / cells : 0.0);
    report.metric("core.section_cells_per_solve", cells / solves);
  }
  return report;
}

}  // namespace perfbench
