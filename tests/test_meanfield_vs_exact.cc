// Differential harness: the mean-field engine against the exact game.
//
// With homogeneous sections, unrestricted paths and zero background, the
// mean-field fixed point satisfies the SAME stationarity conditions as the
// exact Nash equilibrium (U_n'(p_n) = Z'(T/C) for every player, interior or
// cornered -- see core/mean_field.h), so the two solvers must agree up to
// solver termination error.  This suite pins that agreement with explicit
// tolerance bands on welfare, total payment, and per-section loads, across:
//
//   * a structured grid of 200+ scenarios -- every N in {5..50}, every
//     traffic factor (velocity -> P_line), several demand levels and
//     heterogeneity spreads, heterogeneous per-player capacities from the
//     battery model;
//   * a seeded randomized fuzz sweep of 2000 trials at N <= 20.
//
// The bands TIGHTEN as N grows: the exact game's asynchronous termination
// (epsilon on the last cycle's max row delta) leaves a per-player error that
// washes out of the aggregates as 1/N, while the mean-field side converges
// to machine precision (its epsilon is 1e-10 on the aggregate residual).  A
// failing fuzz trial logs its seed and full scenario JSON so it can be
// replayed exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "core/mean_field.h"
#include "core/scenario.h"
#include "core/sweep.h"
#include "obs/strings.h"
#include "util/rng.h"

namespace olev::core {
namespace {

constexpr std::size_t kTrials = 2000;

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double rel_diff(double a, double b) {
  return std::abs(a - b) / std::max({1.0, std::abs(a), std::abs(b)});
}

// Tolerance bands, pinned empirically with ~10x slack over the worst
// observed disagreement and documented in docs/ALGORITHMS.md 5c.  The exact
// game terminates when one full cycle moves every row total by less than
// GameConfig::epsilon (1e-5 here), leaving each player O(epsilon) off its
// true best response; the induced error on the N-player aggregates shrinks
// like 1/N, hence the bands tighten with N.
double welfare_band(std::size_t players) {
  if (players >= 35) return 1e-10;
  if (players >= 15) return 3e-10;
  return 1e-9;
}

double payment_band(std::size_t players) {
  if (players >= 35) return 3e-6;
  if (players >= 15) return 1e-5;
  return 3e-5;
}

double load_band(std::size_t players) {
  if (players >= 35) return 1e-6;
  if (players >= 15) return 3e-6;
  return 1e-5;
}

std::string scenario_json(const ScenarioConfig& config) {
  obs::JsonWriter json;
  json.begin_object();
  json.key("num_olevs").value(config.num_olevs);
  json.key("num_sections").value(config.num_sections);
  json.key("velocity_mph").value(config.velocity.value());
  json.key("beta_lbmp").value(config.beta_lbmp.value());
  json.key("target_degree").value(config.target_degree);
  json.key("demand_diversity").value(config.demand_diversity);
  json.key("seed").value(config.seed);
  json.key("game_seed").value(config.game.seed);
  json.key("game_epsilon").value(config.game.epsilon);
  json.end_object();
  return json.str();
}

struct DiffReport {
  double welfare_diff = 0.0;
  double payment_diff = 0.0;
  double load_diff = 0.0;
};

// Solves `config` with both engines and returns the relative disagreements.
// EXPECTs convergence of both and finiteness of everything.
DiffReport compare_engines(const ScenarioConfig& config) {
  const Scenario scenario = Scenario::build(config);

  Game exact = scenario.make_game();
  const GameResult exact_result = exact.run();
  EXPECT_TRUE(exact_result.converged) << scenario_json(config);

  MeanFieldGame mean_field = scenario.make_mean_field();
  const MeanFieldResult mf_result = mean_field.run();
  EXPECT_TRUE(mf_result.converged) << scenario_json(config);

  DiffReport report;
  report.welfare_diff = rel_diff(exact_result.welfare, mf_result.welfare);
  report.payment_diff =
      rel_diff(sum(exact_result.payments), sum(mf_result.payments));
  const std::vector<double> exact_loads =
      exact_result.schedule.column_totals();
  EXPECT_EQ(exact_loads.size(), mf_result.field.size());
  for (std::size_t c = 0; c < exact_loads.size(); ++c) {
    report.load_diff = std::max(
        report.load_diff, rel_diff(exact_loads[c], mf_result.field[c]));
  }
  return report;
}

ScenarioConfig base_config() {
  ScenarioConfig config;
  config.beta_lbmp = olev::util::Price::per_mwh(16.0);
  config.game.epsilon = 1e-5;
  config.game.max_updates = 500000;
  return config;
}

TEST(MeanFieldVsExact, StructuredGridAgreesWithinBands) {
  // 216 scenarios: N x velocity x demand level x heterogeneity spread x C.
  // Covers every population band the tolerance function distinguishes and
  // all three traffic factors of the evaluation (velocity sets P_line).
  const std::size_t player_counts[] = {5, 8, 12, 20, 35, 50};
  const double velocities[] = {40.0, 60.0, 80.0};
  const double target_degrees[] = {0.6, 0.9, 1.1};
  const double diversities[] = {0.2, 0.4};
  const std::size_t section_counts[] = {10, 20};

  std::size_t scenarios = 0;
  DiffReport worst;
  for (std::size_t players : player_counts) {
    for (double velocity : velocities) {
      for (double target : target_degrees) {
        for (double diversity : diversities) {
          for (std::size_t sections : section_counts) {
            ScenarioConfig config = base_config();
            config.num_olevs = players;
            config.num_sections = sections;
            config.velocity = olev::util::mph(velocity);
            config.target_degree = target;
            config.demand_diversity = diversity;
            config.seed = 0x601d + scenarios;
            ++scenarios;

            const DiffReport report = compare_engines(config);
            EXPECT_LE(report.welfare_diff, welfare_band(players))
                << "welfare: " << scenario_json(config);
            EXPECT_LE(report.payment_diff, payment_band(players))
                << "payment: " << scenario_json(config);
            EXPECT_LE(report.load_diff, load_band(players))
                << "loads: " << scenario_json(config);
            worst.welfare_diff =
                std::max(worst.welfare_diff, report.welfare_diff);
            worst.payment_diff =
                std::max(worst.payment_diff, report.payment_diff);
            worst.load_diff = std::max(worst.load_diff, report.load_diff);
          }
        }
      }
    }
  }
  EXPECT_GE(scenarios, 200u);
  std::cout << "[structured grid: " << scenarios
            << " scenarios, worst rel diffs -- welfare "
            << worst.welfare_diff << ", payment " << worst.payment_diff
            << ", loads " << worst.load_diff << "]\n";
}

TEST(MeanFieldVsExact, BandsTightenWithPopulation) {
  // The pinned bands themselves must encode the 1/N contract.
  EXPECT_LT(welfare_band(50), welfare_band(20));
  EXPECT_LT(welfare_band(20), welfare_band(5));
  EXPECT_LT(payment_band(50), payment_band(5));
  EXPECT_LT(load_band(50), load_band(5));
}

TEST(MeanFieldVsExact, SweepSolverKindsAgree) {
  // The sweep-level wiring: the same spec list solved under both
  // SolverKind values lands within the same bands, and the mean-field
  // results arrive through the common GameResult adapter.
  std::vector<ScenarioSpec> exact_specs;
  for (std::size_t players : {10u, 30u}) {
    ScenarioSpec spec;
    spec.label = "diff-N" + std::to_string(players);
    spec.config = base_config();
    spec.config.num_olevs = players;
    spec.config.num_sections = 10;
    spec.config.seed = 0xd1ff;
    exact_specs.push_back(std::move(spec));
  }
  std::vector<ScenarioSpec> mf_specs = exact_specs;
  for (ScenarioSpec& spec : mf_specs) {
    spec.config.solver = SolverKind::kMeanField;
  }
  const std::vector<SweepResult> exact = run_sweep(exact_specs);
  const std::vector<SweepResult> mean_field = run_sweep(mf_specs);
  ASSERT_EQ(exact.size(), mean_field.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_TRUE(mean_field[i].result.converged);
    const std::size_t players = exact_specs[i].config.num_olevs;
    EXPECT_LE(
        rel_diff(exact[i].result.welfare, mean_field[i].result.welfare),
        welfare_band(players))
        << exact_specs[i].label;
    // The adapter materializes a schedule whose column totals are the field.
    const auto exact_loads = exact[i].result.schedule.column_totals();
    const auto mf_loads = mean_field[i].result.schedule.column_totals();
    for (std::size_t c = 0; c < exact_loads.size(); ++c) {
      EXPECT_LE(rel_diff(exact_loads[c], mf_loads[c]), load_band(players))
          << exact_specs[i].label << " section " << c;
    }
  }
}

TEST(MeanFieldVsExact, RandomizedFuzzAgrees) {
  // Seeded scenario fuzzing at N <= 20 (where the exact game is cheap):
  // random population, sections, traffic factor, demand level and
  // heterogeneity.  Every trial must land inside the generic band; a
  // failure logs the trial seed and the scenario JSON for exact replay.
  const std::uint64_t sweep_seed = 0xfeed5eed;
  util::Rng rng(sweep_seed);
  DiffReport worst;
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    ScenarioConfig config = base_config();
    config.num_olevs = static_cast<std::size_t>(rng.uniform_int(2, 20));
    config.num_sections = static_cast<std::size_t>(rng.uniform_int(2, 30));
    config.velocity = olev::util::mph(rng.uniform(35.0, 85.0));
    config.target_degree = rng.uniform(0.3, 1.2);
    config.demand_diversity = rng.uniform(0.0, 0.5);
    config.seed = rng();
    config.game.seed = rng();

    const DiffReport report = compare_engines(config);
    const std::size_t players = config.num_olevs;
    EXPECT_LE(report.welfare_diff, welfare_band(players))
        << "trial " << trial << " (sweep seed 0x" << std::hex << sweep_seed
        << std::dec << "): " << scenario_json(config);
    EXPECT_LE(report.payment_diff, payment_band(players))
        << "trial " << trial << " (sweep seed 0x" << std::hex << sweep_seed
        << std::dec << "): " << scenario_json(config);
    EXPECT_LE(report.load_diff, load_band(players))
        << "trial " << trial << " (sweep seed 0x" << std::hex << sweep_seed
        << std::dec << "): " << scenario_json(config);
    worst.welfare_diff = std::max(worst.welfare_diff, report.welfare_diff);
    worst.payment_diff = std::max(worst.payment_diff, report.payment_diff);
    worst.load_diff = std::max(worst.load_diff, report.load_diff);
    if (HasFailure()) {
      std::cerr << "replay: scenario = " << scenario_json(config) << "\n";
      break;
    }
  }
  std::cout << "[fuzz: " << kTrials << " trials, worst rel diffs -- welfare "
            << worst.welfare_diff << ", payment " << worst.payment_diff
            << ", loads " << worst.load_diff << "]\n";
}

}  // namespace
}  // namespace olev::core
