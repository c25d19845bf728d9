// Scale benchmark for the mean-field pricing engine (core/mean_field.h).
//
// Solves the same calibrated scenario at N = 10^4, 10^5 and 10^6 players and
// reports the cost of one representative-player update at each scale.  The
// engine's claim is O(1) per player per field iteration -- no dependence on
// N beyond the sum over responses -- so the per-player update time must stay
// flat (within noise) across two orders of magnitude.  The exact game's
// update is O(N * C) through the exclusion scan; at N = 10^6 a single exact
// round would take hours, which is the gap this engine exists to close.
//
//   $ ./bench_meanfield              # full scan up to N = 10^6
//   $ ./bench_meanfield --max-n 100000   # tier-1 bench.meanfield_scales
//
// Exits 1 when a scale point does not converge or when the per-player
// update-cost spread (max / min across scales) falls outside (0, 4]: ~1x is
// the O(1) claim, and 4x is slack for shared CI runners.

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"

#include "core/scenario.h"
#include "obs/report.h"
#include "util/config.h"
#include "util/csv.h"

namespace {

using namespace olev;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr double kMaxCostSpread = 4.0;

}  // namespace

int main(int argc, char** argv) {
  std::size_t max_n = 1'000'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-n") == 0 && i + 1 < argc) {
      const auto value = util::parse_uint(argv[++i]);
      if (!value) {
        std::cerr << "bench_meanfield: bad value '" << argv[i]
                  << "' for --max-n\n";
        return 2;
      }
      max_n = static_cast<std::size_t>(*value);
    } else {
      std::cerr << "usage: " << argv[0] << " [--max-n N]\n";
      return 2;
    }
  }

  olev::obs::EnvSession obs_session;

  constexpr std::size_t kSections = 100;
  std::vector<std::size_t> scales;
  for (std::size_t n : {10'000u, 100'000u, 1'000'000u}) {
    if (n <= max_n) scales.push_back(n);
  }
  if (scales.empty()) scales.push_back(max_n);

  std::cout << "mean-field scale scan: C = " << kSections
            << " sections, N up to " << scales.back() << " players\n\n";

  util::Table table({"players", "iterations", "seconds",
                     "per_player_update_ns", "welfare", "total_load_kw",
                     "converged"});
  bool all_converged = true;
  double min_cost = std::numeric_limits<double>::infinity();
  double max_cost = 0.0;
  for (std::size_t n : scales) {
    core::ScenarioConfig config;
    config.num_olevs = n;
    config.num_sections = kSections;
    config.beta_lbmp = olev::util::Price::per_mwh(16.0);
    config.target_degree = 0.9;
    // Hold per-OLEV preferences fixed while N scales (Fig. 5(b) protocol):
    // demand is calibrated at the smallest scale so larger fleets compete
    // for the same feeder.
    config.calibration_players = scales.front();
    config.calibration_sections = kSections;
    config.seed = 0x5eed;
    config.solver = core::SolverKind::kMeanField;

    const core::Scenario scenario = core::Scenario::build(config);
    core::MeanFieldGame game = scenario.make_mean_field();
    const auto start = Clock::now();
    const core::MeanFieldResult result = game.run();
    const double elapsed = seconds_since(start);

    // One field iteration re-prices every player once; the per-player
    // update cost is the engine's O(1) claim.
    const double player_updates =
        static_cast<double>(result.iterations) * static_cast<double>(n);
    const double per_player_update_ns =
        player_updates > 0.0 ? elapsed * 1e9 / player_updates : 0.0;
    all_converged = all_converged && result.converged;
    min_cost = std::min(min_cost, per_player_update_ns);
    max_cost = std::max(max_cost, per_player_update_ns);

    table.add_row({std::to_string(n), std::to_string(result.iterations),
                   util::fmt(elapsed, 4), util::fmt(per_player_update_ns, 1),
                   util::fmt(result.welfare, 2),
                   util::fmt(result.total_load_kw, 1),
                   result.converged ? "yes" : "NO"});
  }
  bench::emit(table, "meanfield_scale");

  const double flat_ratio = min_cost > 0.0 ? max_cost / min_cost : 0.0;
  std::cout << "\nper-player update cost spread across scales: "
            << util::fmt(flat_ratio, 2) << "x (O(1)/player means ~1x)\n";
  if (!all_converged) {
    std::cerr << "bench_meanfield: a scale point did not converge\n";
    return 1;
  }
  if (!(flat_ratio > 0.0 && flat_ratio <= kMaxCostSpread)) {
    std::cerr << "bench_meanfield: per-player update cost spread "
              << util::fmt(flat_ratio, 2) << "x is outside (0, "
              << util::fmt(kMaxCostSpread, 1) << "]\n";
    return 1;
  }
  return 0;
}
