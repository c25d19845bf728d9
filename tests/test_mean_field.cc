// Property tests for the mean-field pricing engine (core/mean_field.h):
// construction contracts, fixed-point self-consistency, representative-player
// KKT conditions, payment sign, welfare monotonicity of the field iteration,
// background water-filling, the closed-form
// (U')^{-1} and affine-crossing implementations, determinism, and schedule
// materialization.
// The *accuracy* of the approximation against the exact game lives in
// test_meanfield_vs_exact.cc.

#include "core/mean_field.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/scenario.h"
#include "util/rng.h"

namespace olev::core {
namespace {

SectionCost make_cost(double cap = 40.0) {
  return SectionCost(std::make_unique<NonlinearPricing>(5.0, 0.875, cap),
                     OverloadCost{1.0}, olev::util::kw(cap));
}

SectionCost make_linear_cost() {
  return SectionCost(std::make_unique<LinearPricing>(0.016), OverloadCost{0.0},
                     olev::util::kw(40.0));
}

std::vector<PlayerSpec> make_players(const std::vector<double>& weights,
                                     double p_max = 200.0) {
  std::vector<PlayerSpec> players;
  for (double w : weights) {
    PlayerSpec player;
    player.satisfaction = std::make_unique<LogSatisfaction>(w);
    player.p_max = olev::util::kw(p_max);
    players.push_back(std::move(player));
  }
  return players;
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

TEST(MeanFieldGame, ConstructorValidation) {
  EXPECT_THROW(MeanFieldGame({}, make_cost(), 2, olev::util::kw(50.0)),
               std::invalid_argument);
  EXPECT_THROW(
      MeanFieldGame(make_players({1.0}), make_cost(), 0, olev::util::kw(50.0)),
      std::invalid_argument);
  EXPECT_THROW(
      MeanFieldGame(make_players({1.0}), make_cost(), 2, olev::util::kw(0.0)),
      std::invalid_argument);
  {
    auto players = make_players({1.0});
    players[0].p_max = olev::util::kw(-1.0);
    EXPECT_THROW(MeanFieldGame(std::move(players), make_cost(), 2,
                               olev::util::kw(50.0)),
                 std::invalid_argument);
  }
  {
    auto players = make_players({1.0});
    players[0].satisfaction = nullptr;
    EXPECT_THROW(MeanFieldGame(std::move(players), make_cost(), 2,
                               olev::util::kw(50.0)),
                 std::invalid_argument);
  }
}

TEST(MeanFieldGame, RejectsPathRestrictedPlayers) {
  // The field has no per-player section view: masked players must use the
  // exact Game.
  auto players = make_players({1.0, 2.0});
  players[1].allowed_sections = {true, false};
  EXPECT_THROW(
      MeanFieldGame(std::move(players), make_cost(), 2, olev::util::kw(50.0)),
      std::invalid_argument);
}

TEST(MeanFieldGame, RejectsNonConvexCost) {
  // The field level is identified through Z'; a linear Z has no inverse.
  EXPECT_THROW(MeanFieldGame(make_players({1.0}), make_linear_cost(), 2,
                             olev::util::kw(50.0)),
               std::invalid_argument);
}

TEST(MeanFieldGame, RejectsBadBackground) {
  MeanFieldConfig config;
  config.background_load_kw = {1.0, 2.0, 3.0};  // sections = 2
  EXPECT_THROW(MeanFieldGame(make_players({1.0}), make_cost(), 2,
                             olev::util::kw(50.0), config),
               std::invalid_argument);
  config.background_load_kw = {1.0, -2.0};
  EXPECT_THROW(MeanFieldGame(make_players({1.0}), make_cost(), 2,
                             olev::util::kw(50.0), config),
               std::invalid_argument);
}

TEST(MeanFieldGame, FixedPointIsSelfConsistent) {
  MeanFieldGame game(make_players({10.0, 20.0, 15.0, 8.0, 12.0}), make_cost(),
                     4, olev::util::kw(50.0));
  const MeanFieldResult result = game.run();
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.iterations, 0u);

  // T equals both the sum of requests and the field mass.
  EXPECT_NEAR(result.total_load_kw, sum(result.requests),
              1e-9 * std::max(1.0, result.total_load_kw));
  EXPECT_NEAR(sum(result.field), result.total_load_kw,
              1e-9 * std::max(1.0, result.total_load_kw));

  // The published water level and marginal price describe the field: over a
  // flat (zero) background every section carries exactly the level.
  for (double load : result.field) {
    EXPECT_NEAR(load, result.water_level_kw, 1e-9);
  }
  const SectionCost z = make_cost();
  EXPECT_NEAR(result.marginal_price, z.derivative(result.water_level_kw),
              1e-12);

  // Self-consistency of the fixed point: every request is the best response
  // to the marginal price the aggregate itself induces.
  for (std::size_t n = 0; n < result.requests.size(); ++n) {
    EXPECT_GE(result.requests[n], 0.0);
  }
}

TEST(MeanFieldGame, FixedPointSatisfiesKkt) {
  const std::vector<double> weights{10.0, 20.0, 15.0, 8.0, 12.0};
  const double p_max = 30.0;
  MeanFieldGame game(make_players(weights, p_max), make_cost(), 4,
                     olev::util::kw(50.0));
  const MeanFieldResult result = game.run();
  ASSERT_TRUE(result.converged);
  const double rho = result.marginal_price;
  ASSERT_GT(rho, 0.0);
  for (std::size_t n = 0; n < weights.size(); ++n) {
    LogSatisfaction u(weights[n]);
    const double p = result.requests[n];
    if (p <= 0.0) {
      EXPECT_LE(u.derivative(0.0), rho + 1e-9) << "player " << n;
    } else if (p >= p_max - 1e-9) {
      EXPECT_GE(u.derivative(p_max), rho - 1e-9) << "player " << n;
    } else {
      EXPECT_NEAR(u.derivative(p), rho, 1e-6 * std::max(1.0, rho))
          << "player " << n;
    }
  }
}

TEST(MeanFieldGame, PaymentsAreNonNegativeAndUnbiased) {
  MeanFieldGame game(make_players({10.0, 20.0, 15.0}), make_cost(), 4,
                     olev::util::kw(50.0));
  const MeanFieldResult result = game.run();
  ASSERT_TRUE(result.converged);
  const SectionCost z = make_cost();
  for (std::size_t n = 0; n < result.payments.size(); ++n) {
    EXPECT_GE(result.payments[n], 0.0) << "player " << n;
    // Utility decomposes exactly as F_n = U_n(p_n) - Psi_n.
    LogSatisfaction u(n == 0 ? 10.0 : (n == 1 ? 20.0 : 15.0));
    EXPECT_NEAR(result.utilities[n],
                u.value(result.requests[n]) - result.payments[n], 1e-12)
        << "player " << n;
    // Flat-field closed form: Psi_n = C [Z(T/C) - Z((T - p_n)/C)].
    const double sections = 4.0;
    const double expected =
        sections * (z.value(result.total_load_kw / sections) -
                    z.value((result.total_load_kw - result.requests[n]) /
                            sections));
    EXPECT_NEAR(result.payments[n], expected,
                1e-9 * std::max(1.0, expected))
        << "player " << n;
  }
}

TEST(MeanFieldGame, WelfareIsMonotoneAlongFieldIterations) {
  MeanFieldConfig config;
  config.record_trajectory = true;
  MeanFieldGame game(make_players({10.0, 25.0, 18.0, 7.0, 30.0, 12.0}),
                     make_cost(), 5, olev::util::kw(50.0), config);
  const MeanFieldResult result = game.run();
  ASSERT_TRUE(result.converged);
  ASSERT_EQ(result.trajectory.size(), result.iterations);
  double previous = -std::numeric_limits<double>::infinity();
  for (const UpdateMetrics& metrics : result.trajectory) {
    EXPECT_GE(metrics.welfare,
              previous - 1e-9 * std::max(1.0, std::abs(previous)))
        << "iteration " << metrics.update;
    previous = metrics.welfare;
    EXPECT_EQ(metrics.player, 6u);  // every player re-responded
  }
}

TEST(MeanFieldGame, BackgroundLoadsAreWaterFilled) {
  MeanFieldConfig config;
  config.background_load_kw = {30.0, 5.0, 10.0, 0.0};
  MeanFieldGame game(make_players({10.0, 20.0, 15.0}), make_cost(), 4,
                     olev::util::kw(50.0), config);
  const MeanFieldResult result = game.run();
  ASSERT_TRUE(result.converged);

  // Field mass = background mass + aggregate demand.
  EXPECT_NEAR(sum(result.field), sum(config.background_load_kw) +
                                     result.total_load_kw,
              1e-9 * std::max(1.0, sum(result.field)));
  // Water-filling: every section sits at the common level or keeps its
  // (higher) background untouched; no section is below-level while another
  // received load.
  for (std::size_t c = 0; c < 4; ++c) {
    const double increment = result.field[c] - config.background_load_kw[c];
    EXPECT_GE(increment, -1e-12) << "section " << c;
    if (increment > 1e-9) {
      EXPECT_NEAR(result.field[c], result.water_level_kw, 1e-9)
          << "section " << c;
    } else {
      EXPECT_GE(config.background_load_kw[c], result.water_level_kw - 1e-9)
          << "section " << c;
    }
  }
}

TEST(MeanFieldGame, DeterministicAcrossRuns) {
  const auto run_once = [] {
    MeanFieldGame game(make_players({10.0, 20.0, 15.0, 8.0}), make_cost(), 3,
                       olev::util::kw(50.0));
    return game.run();
  };
  const MeanFieldResult a = run_once();
  const MeanFieldResult b = run_once();
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.total_load_kw, b.total_load_kw);
  EXPECT_EQ(a.welfare, b.welfare);
  ASSERT_EQ(a.requests.size(), b.requests.size());
  for (std::size_t n = 0; n < a.requests.size(); ++n) {
    EXPECT_EQ(a.requests[n], b.requests[n]) << "player " << n;
    EXPECT_EQ(a.payments[n], b.payments[n]) << "player " << n;
  }
}

TEST(MeanFieldGame, MaterializedScheduleMatchesResult) {
  MeanFieldConfig config;
  config.background_load_kw = {12.0, 3.0, 7.0};
  MeanFieldGame game(make_players({10.0, 20.0, 15.0, 8.0}), make_cost(), 3,
                     olev::util::kw(50.0), config);
  const MeanFieldResult result = game.run();
  ASSERT_TRUE(result.converged);
  const PowerSchedule schedule = game.materialize_schedule(result);
  ASSERT_EQ(schedule.players(), 4u);
  ASSERT_EQ(schedule.sections(), 3u);
  for (std::size_t n = 0; n < 4; ++n) {
    EXPECT_NEAR(schedule.row_total(n), result.requests[n],
                1e-9 * std::max(1.0, result.requests[n]))
        << "player " << n;
  }
  const auto columns = schedule.column_totals();
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(columns[c] + config.background_load_kw[c], result.field[c],
                1e-9 * std::max(1.0, result.field[c]))
        << "section " << c;
  }
}

TEST(MeanFieldGame, ToGameResultCountsPlayerUpdates) {
  MeanFieldGame game(make_players({10.0, 20.0}), make_cost(), 3,
                     olev::util::kw(50.0));
  const MeanFieldResult result = game.run();
  const GameResult adapted = game.to_game_result(result);
  EXPECT_EQ(adapted.updates, result.iterations * 2);
  EXPECT_TRUE(adapted.converged);
  EXPECT_EQ(adapted.welfare, result.welfare);
  EXPECT_EQ(adapted.requests, result.requests);
  EXPECT_EQ(adapted.payments, result.payments);
}

TEST(MeanFieldGame, ScenarioFactoryMintsWorkingEngine) {
  ScenarioConfig config;
  config.num_olevs = 20;
  config.num_sections = 10;
  config.beta_lbmp = olev::util::Price::per_mwh(16.0);
  config.target_degree = 0.9;
  config.seed = 0x5eed;
  config.solver = SolverKind::kMeanField;
  const Scenario scenario = Scenario::build(config);
  MeanFieldGame game = scenario.make_mean_field();
  const MeanFieldResult result = game.run();
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.welfare, 0.0);
  // Calibration steers the field toward the target congestion degree.
  EXPECT_NEAR(result.congestion.mean, 0.9, 0.15);
}

// The closed-form (U')^{-1} implementations must agree with the base
// class's bisection (which any future Satisfaction subtype inherits).
class BisectionOnly : public Satisfaction {
 public:
  explicit BisectionOnly(std::unique_ptr<Satisfaction> inner)
      : inner_(std::move(inner)) {}
  double value(double p) const override { return inner_->value(p); }
  double derivative(double p) const override { return inner_->derivative(p); }
  std::unique_ptr<Satisfaction> clone() const override {
    return std::make_unique<BisectionOnly>(inner_->clone());
  }

 private:
  std::unique_ptr<Satisfaction> inner_;
};

TEST(Satisfaction, DerivativeInverseClosedFormsMatchBisection) {
  std::vector<std::unique_ptr<Satisfaction>> subjects;
  subjects.push_back(std::make_unique<LogSatisfaction>(12.0, 2.0));
  subjects.push_back(std::make_unique<SqrtSatisfaction>(6.0));
  subjects.push_back(std::make_unique<QuadraticSatisfaction>(3.0, 80.0));
  for (const auto& u : subjects) {
    const BisectionOnly generic(u->clone());
    for (double marginal : {1e-3, 0.01, 0.1, 0.5, 1.0, 3.0, 50.0}) {
      const double closed = u->derivative_inverse(marginal);
      const double bisected = generic.derivative_inverse(marginal);
      EXPECT_NEAR(closed, bisected, 1e-6 * (1.0 + closed))
          << "marginal " << marginal;
      // Round trip: U'((U')^{-1}(m)) == m on the interior.
      if (closed > 0.0 && std::isfinite(closed)) {
        EXPECT_NEAR(u->derivative(closed), marginal,
                    1e-9 * std::max(1.0, marginal))
            << "marginal " << marginal;
      }
    }
    EXPECT_THROW((void)u->derivative_inverse(0.0), std::invalid_argument);
    EXPECT_THROW((void)u->derivative_inverse(-1.0), std::invalid_argument);
  }
}

// affine_crossing is the best response on one affine piece of a price curve
// (core/best_response.h).  The closed forms must land where the base class's
// bisection does: on lines drawn through a known crossing (a quadratic's up
// to twice past its satiation point, where U' < 0) and on random lines,
// which often clamp to a bracket end.  A flat line over [0, inf) is
// (U')^{-1}.
TEST(Satisfaction, AffineCrossingClosedFormsMatchBaseBisection) {
  std::vector<std::unique_ptr<Satisfaction>> subjects;
  subjects.push_back(std::make_unique<LogSatisfaction>());
  subjects.push_back(std::make_unique<LogSatisfaction>(12.0, 2.0));
  subjects.push_back(std::make_unique<QuadraticSatisfaction>(3.0, 80.0));
  const double infinity = std::numeric_limits<double>::infinity();
  util::Rng rng(0xaff1);
  for (const auto& u : subjects) {
    const BisectionOnly generic(u->clone());
    for (int trial = 0; trial < 500; ++trial) {
      const double b = trial % 5 == 0 ? 0.0 : rng.uniform(0.0, 2.0);

      const double crossing = rng.uniform(0.0, 160.0);
      const double a = u->derivative(crossing) - b * crossing;
      double lo = rng.uniform(0.0, crossing);
      double hi = crossing + rng.uniform(0.0, 100.0);
      const double closed = u->affine_crossing(a, b, lo, hi);
      EXPECT_NEAR(closed, crossing, 1e-12 * (1.0 + crossing))
          << "trial " << trial << " a " << a << " b " << b;
      EXPECT_NEAR(closed, generic.affine_crossing(a, b, lo, hi),
                  1e-12 * (1.0 + crossing))
          << "trial " << trial << " a " << a << " b " << b;

      const double random_a = rng.uniform(-2.0, 6.0);
      lo = rng.uniform(0.0, 100.0);
      hi = lo + rng.uniform(0.0, 100.0);
      const double clamped = u->affine_crossing(random_a, b, lo, hi);
      const double bisected = generic.affine_crossing(random_a, b, lo, hi);
      EXPECT_NEAR(clamped, bisected, 1e-12 * (1.0 + bisected))
          << "trial " << trial << " a " << random_a << " b " << b;
      EXPECT_GE(clamped, lo);
      EXPECT_LE(clamped, hi);
      if (clamped == lo) {
        EXPECT_LE(u->derivative(lo), random_a + b * lo + 1e-12);
      } else if (clamped == hi) {
        EXPECT_GE(u->derivative(hi), random_a + b * hi - 1e-12);
      }
    }
    for (double marginal : {1e-3, 0.01, 0.1, 0.5, 1.0, 3.0, 50.0}) {
      const double inverse = u->derivative_inverse(marginal);
      EXPECT_NEAR(u->affine_crossing(marginal, 0.0, 0.0, infinity), inverse,
                  1e-12 * (1.0 + inverse))
          << "marginal " << marginal;
      EXPECT_NEAR(generic.affine_crossing(marginal, 0.0, 0.0, infinity),
                  generic.derivative_inverse(marginal), 1e-9 * (1.0 + inverse))
          << "marginal " << marginal;
    }
  }
}

}  // namespace
}  // namespace olev::core
