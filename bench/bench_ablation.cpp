// Ablations over the design choices DESIGN.md calls out:
//   (1) alpha (the paper fixes 0.875 "based on the profit the smart grid
//       wants to make"): how the base price level shifts payments;
//   (2) the overload-cost weight: what enforces the eta safety cap;
//   (3) update order (round-robin vs. uniform random): same fixed point,
//       different update counts;
//   (4) safety factor eta: achievable congestion degree tracks eta;
//   (5) a heterogeneous corridor (mixed speed limits): one cost per section.
// Every game must converge: one that stops at max_updates makes the run exit
// 1, so the exit status gates each ablation end to end.

#include <iostream>

#include "bench_util.h"

#include "core/game.h"
#include "core/scenario.h"
#include "core/sweep.h"
#include "util/csv.h"
#include "util/units.h"
#include "wpt/charging_section.h"

namespace {

using namespace olev;

core::ScenarioConfig base_config() {
  core::ScenarioConfig config;
  config.num_olevs = 30;
  config.num_sections = 10;
  config.beta_lbmp = olev::util::Price::per_mwh(16.0);
  config.target_degree = 0.9;
  config.seed = 0xab1;
  return config;
}

}  // namespace

int main() {
  // Ablations 1, 3 and 4 are independent scenario points: solve them all in
  // one parallel sweep, then slice the result list per ablation.
  constexpr double kAlphas[] = {0.0, 0.25, 0.5, 0.875, 1.25, 2.0};
  constexpr core::UpdateOrder kOrders[] = {core::UpdateOrder::kRoundRobin,
                                           core::UpdateOrder::kUniformRandom};
  constexpr double kEtas[] = {0.5, 0.7, 0.9, 1.0};

  std::vector<core::ScenarioSpec> specs;
  for (double alpha : kAlphas) {
    core::ScenarioSpec spec;
    spec.config = base_config();
    spec.config.alpha = alpha;
    specs.push_back(std::move(spec));
  }
  for (auto order : kOrders) {
    core::ScenarioSpec spec;
    spec.config = base_config();
    spec.config.game.order = order;
    specs.push_back(std::move(spec));
  }
  for (double eta : kEtas) {
    core::ScenarioSpec spec;
    spec.config = base_config();
    spec.config.eta = eta;
    spec.config.target_degree = eta;  // demand calibrated to the cap
    specs.push_back(std::move(spec));
  }
  const auto sweep = core::run_sweep(specs);
  std::size_t at = 0;

  bool all_converged = true;
  auto check = [&all_converged](bool converged, int ablation) {
    if (!converged) {
      std::cerr << "bench_ablation: a game in ablation " << ablation
                << " did not converge\n";
      all_converged = false;
    }
  };

  std::cout << "=== Ablation 1: alpha sweep (paper fixes alpha = 0.875) ===\n";
  {
    util::Table table({"alpha", "unit_payment_$per_MWh", "mean_degree",
                       "welfare"});
    for (double alpha : kAlphas) {
      const core::SweepResult& point = sweep[at++];
      check(point.result.converged, 1);
      table.add_row_numeric({alpha, point.unit_payment_per_mwh,
                             point.result.congestion.mean,
                             point.result.welfare},
                            3);
    }
    bench::emit(table, "ablation_alpha");
    std::cout << "alpha sets the ratio of base price to congestion\n"
                 "sensitivity: with the marginal price anchored at degree\n"
                 "0.5, larger alpha flattens the curve toward linear pricing\n"
                 "(cheaper peaks, dearer troughs) and large alpha loses the\n"
                 "congestion disincentive entirely.\n\n";
  }

  std::cout << "=== Ablation 2: overload-cost weight (enforces eta cap) ===\n";
  {
    // Calibrate demand ONCE against the default cost, then vary only the
    // overload weight the game actually faces -- otherwise the calibration
    // re-scales demand and hides the effect.
    core::ScenarioConfig config = base_config();
    config.target_degree = 1.15;  // demand pushes well past the eta = 0.9 cap
    const core::Scenario scenario = core::Scenario::build(config);

    util::Table table({"overload_scale", "mean_degree", "max_degree",
                       "overshoot_vs_eta"});
    for (double scale : {0.0, 1.0, 5.0, 25.0, 100.0}) {
      std::vector<core::PlayerSpec> players;
      for (std::size_t n = 0; n < scenario.p_max().size(); ++n) {
        core::PlayerSpec player;
        player.satisfaction =
            std::make_unique<core::LogSatisfaction>(scenario.weights()[n]);
        player.p_max = olev::util::kw(scenario.p_max()[n]);
        players.push_back(std::move(player));
      }
      core::SectionCost cost(
          core::paper_nonlinear_pricing(config.beta_lbmp, config.alpha,
                                        olev::util::kw(scenario.cap_kw())),
          core::OverloadCost{scale * config.beta_lbmp.value() / 1000.0 /
                             scenario.p_line_kw()},
          olev::util::kw(scenario.cap_kw()));
      core::Game game(std::move(players), cost, config.num_sections,
                      olev::util::kw(scenario.p_line_kw()));
      const auto result = game.run();
      check(result.converged, 2);
      table.add_row_numeric({scale, result.congestion.mean,
                             result.congestion.max,
                             result.congestion.max - config.eta},
                            3);
    }
    bench::emit(table, "ablation_overload");
    std::cout << "without the overload term (scale 0) demand runs past the\n"
                 "eta cap freely; increasing the weight pulls the overshoot\n"
                 "back toward eta.\n\n";
  }

  std::cout << "=== Ablation 3: update order ===\n";
  {
    util::Table table({"order", "updates_to_converge", "welfare"});
    for (auto order : kOrders) {
      const core::GameResult& result = sweep[at++].result;
      check(result.converged, 3);
      table.add_row({order == core::UpdateOrder::kRoundRobin ? "round-robin"
                                                             : "uniform-random",
                     util::fmt(static_cast<double>(result.updates), 0),
                     util::fmt(result.welfare, 4)});
    }
    bench::emit(table, "ablation_order");
    std::cout << "both orders reach the same welfare (unique optimum,\n"
                 "Theorem IV.1); random order breaks the cyclic ping-pong of\n"
                 "round-robin and converges in fewer updates here.\n\n";
  }

  std::cout << "=== Ablation 4: safety factor eta ===\n";
  {
    util::Table table({"eta", "mean_degree", "total_power_kW"});
    for (double eta : kEtas) {
      const core::GameResult& result = sweep[at++].result;
      check(result.converged, 4);
      table.add_row_numeric({eta, result.congestion.mean,
                             result.schedule.total()},
                            3);
    }
    bench::emit(table, "ablation_eta");
    std::cout << "the achieved congestion degree tracks the configured eta:\n"
                 "eta is the knob the operator uses to trade throughput for\n"
                 "headroom.\n\n";
  }

  std::cout << "=== Ablation 5: heterogeneous corridor (mixed speed limits) "
               "===\n";
  {
    // Three section groups on roads with different speed limits: Eq. (1)
    // gives each a different P_line and hence a different cost curve.  The
    // per-section game equalizes *marginal prices*, not loads.
    const double beta = 16.0;
    wpt::ChargingSectionSpec spec;
    const double speeds_mph[] = {30.0, 45.0, 60.0};
    std::vector<core::SectionCost> costs;
    std::vector<double> p_lines;
    for (double mph : speeds_mph) {
      const double p_line = wpt::p_line_kw(spec, util::to_mps(util::mph(mph)));
      const double cap = 0.9 * p_line;
      costs.emplace_back(core::paper_nonlinear_pricing(olev::util::Price::per_mwh(beta), 0.875, olev::util::kw(cap)),
                         core::OverloadCost{25.0 * beta / 1000.0 / p_line},
                         olev::util::kw(cap));
      p_lines.push_back(p_line);
    }
    std::vector<core::PlayerSpec> players;
    for (double w : {0.9, 1.1, 1.0, 1.2, 0.8}) {
      core::PlayerSpec player;
      player.satisfaction = std::make_unique<core::LogSatisfaction>(
          w * costs[2].derivative(30.0) * 60.0);
      player.p_max = olev::util::kw(60.0);
      players.push_back(std::move(player));
    }
    core::Game game(std::move(players), costs, p_lines);
    const auto result = game.run();
    check(result.converged, 5);

    util::Table table({"speed_mph", "P_line_kW", "load_kW", "degree",
                       "marginal_$per_MWh"});
    for (std::size_t c = 0; c < 3; ++c) {
      const double load = result.schedule.column_total(c);
      table.add_row_numeric({speeds_mph[c], p_lines[c], load,
                             result.congestion.per_section[c],
                             1000.0 * costs[c].derivative(load)},
                            2);
    }
    bench::emit(table, "ablation_heterogeneous");
    std::cout << (result.converged ? "converged" : "DID NOT CONVERGE")
              << ": slower roads (higher P_line) absorb more power, but the\n"
                 "marginal price column is flat -- the generalized KKT\n"
                 "condition, vs. the uniform case where flat *loads* are\n"
                 "optimal.\n";
  }
  return all_converged ? 0 : 1;
}
