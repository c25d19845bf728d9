// Parameterized property sweeps over the game machinery -- the paper's
// formal claims (existence, uniqueness, convergence, optimality of the
// fixed point; Theorem IV.1) checked across a grid of configurations.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/best_response.h"
#include "core/central.h"
#include "core/game.h"
#include "util/rng.h"

namespace olev::core {
namespace {

struct SweepParams {
  std::size_t players;
  std::size_t sections;
  double beta;
  double cap;
  std::uint64_t seed;
};

std::string param_name(const ::testing::TestParamInfo<SweepParams>& info) {
  // Appended into one string: chained operator+ trips gcc 12's false-positive
  // -Wrestrict at -O3 (GCC bug 105651).
  std::string name = "N";
  name += std::to_string(info.param.players);
  name += "_C";
  name += std::to_string(info.param.sections);
  name += "_seed";
  name += std::to_string(info.param.seed);
  return name;
}

class GameSweep : public ::testing::TestWithParam<SweepParams> {
 protected:
  SectionCost cost() const {
    const auto& p = GetParam();
    return SectionCost(std::make_unique<NonlinearPricing>(p.beta, 0.875, p.cap),
                       OverloadCost{1.0}, olev::util::kw(p.cap));
  }

  std::vector<double> weights() const {
    const auto& p = GetParam();
    util::Rng rng(p.seed);
    std::vector<double> w(p.players);
    for (double& v : w) v = rng.uniform(5.0, 40.0);
    return w;
  }

  std::vector<double> caps() const {
    const auto& p = GetParam();
    util::Rng rng(p.seed ^ 0xabcdef);
    std::vector<double> c(p.players);
    for (double& v : c) v = rng.uniform(10.0, 120.0);
    return c;
  }

  std::vector<PlayerSpec> players() const {
    const auto w = weights();
    const auto c = caps();
    std::vector<PlayerSpec> specs;
    for (std::size_t n = 0; n < w.size(); ++n) {
      PlayerSpec spec;
      spec.satisfaction = std::make_unique<LogSatisfaction>(w[n]);
      spec.p_max = olev::util::kw(c[n]);
      specs.push_back(std::move(spec));
    }
    return specs;
  }
};

TEST_P(GameSweep, Converges) {
  Game game(players(), cost(), GetParam().sections, olev::util::kw(50.0));
  const GameResult result = game.run();
  EXPECT_TRUE(result.converged) << "updates=" << result.updates;
}

TEST_P(GameSweep, FeasibilityInvariants) {
  Game game(players(), cost(), GetParam().sections, olev::util::kw(50.0));
  const GameResult result = game.run();
  const auto c = caps();
  for (std::size_t n = 0; n < GetParam().players; ++n) {
    EXPECT_LE(result.requests[n], c[n] + 1e-6);
    for (double v : result.schedule.row(n)) EXPECT_GE(v, -1e-12);
    // Payments are never negative (unbiased externality pricing).
    EXPECT_GE(result.payments[n], -1e-9);
    // Participation is individually rational: playing beats opting out.
    EXPECT_GE(result.utilities[n], -1e-9);
  }
}

TEST_P(GameSweep, FixedPointIsNashEquilibrium) {
  Game game(players(), cost(), GetParam().sections, olev::util::kw(50.0));
  const GameResult result = game.run();
  ASSERT_TRUE(result.converged);
  const SectionCost z = cost();
  const auto w = weights();
  const auto c = caps();
  for (std::size_t n = 0; n < GetParam().players; ++n) {
    const auto others = result.schedule.column_totals_excluding(n);
    LogSatisfaction u(w[n]);
    const BestResponse response = best_response(u, z, others, olev::util::kw(c[n]));
    EXPECT_NEAR(response.p_star, result.requests[n], 1e-4) << "player " << n;
  }
}

TEST_P(GameSweep, MatchesCentralizedOptimum) {
  Game game(players(), cost(), GetParam().sections, olev::util::kw(50.0));
  const GameResult result = game.run();
  ASSERT_TRUE(result.converged);

  const auto w = weights();
  std::vector<std::unique_ptr<Satisfaction>> satisfactions;
  for (double weight : w) {
    satisfactions.push_back(std::make_unique<LogSatisfaction>(weight));
  }
  CentralOptions options;
  options.step_size = 2.0;
  const CentralResult central = maximize_welfare(
      satisfactions, caps(), cost(), GetParam().sections, options);
  ASSERT_TRUE(central.converged);
  // Welfare of the decentralized fixed point attains the social optimum.
  EXPECT_NEAR(result.welfare, central.welfare,
              1e-3 * std::max(1.0, std::abs(central.welfare)));
}

TEST_P(GameSweep, UniqueAcrossUpdateOrders) {
  GameConfig random_order;
  random_order.order = UpdateOrder::kUniformRandom;
  random_order.max_updates = 200000;
  random_order.seed = GetParam().seed + 17;
  Game a(players(), cost(), GetParam().sections, olev::util::kw(50.0));
  Game b(players(), cost(), GetParam().sections, olev::util::kw(50.0), random_order);
  const GameResult ra = a.run();
  const GameResult rb = b.run();
  ASSERT_TRUE(ra.converged);
  ASSERT_TRUE(rb.converged);
  for (std::size_t n = 0; n < GetParam().players; ++n) {
    EXPECT_NEAR(ra.requests[n], rb.requests[n], 5e-3) << "player " << n;
  }
}

TEST_P(GameSweep, LoadBalancedAtFixedPoint) {
  Game game(players(), cost(), GetParam().sections, olev::util::kw(50.0));
  const GameResult result = game.run();
  ASSERT_TRUE(result.converged);
  if (result.schedule.total() > 1.0) {
    EXPECT_GT(result.congestion.jain_fairness, 0.999);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GameSweep,
    ::testing::Values(SweepParams{1, 1, 5.0, 40.0, 1},
                      SweepParams{2, 3, 5.0, 40.0, 2},
                      SweepParams{5, 2, 8.0, 30.0, 3},
                      SweepParams{8, 8, 3.0, 50.0, 4},
                      SweepParams{12, 4, 10.0, 25.0, 5},
                      SweepParams{20, 10, 5.0, 40.0, 6},
                      SweepParams{30, 15, 6.0, 45.0, 7},
                      SweepParams{50, 25, 4.0, 60.0, 8}),
    param_name);

// ---- mixed satisfaction families ----

std::vector<PlayerSpec> mixed_family_players(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<PlayerSpec> players;
  for (int n = 0; n < 9; ++n) {
    PlayerSpec player;
    player.p_max = olev::util::kw(rng.uniform(20.0, 80.0));
    switch (n % 3) {
      case 0:
        player.satisfaction =
            std::make_unique<LogSatisfaction>(rng.uniform(5.0, 30.0));
        break;
      case 1:
        player.satisfaction =
            std::make_unique<SqrtSatisfaction>(rng.uniform(2.0, 10.0));
        break;
      default:
        // Saturation level above p_max keeps U strictly increasing on the
        // feasible interval.
        player.satisfaction = std::make_unique<QuadraticSatisfaction>(
            rng.uniform(0.5, 2.0), player.p_max.value() * rng.uniform(1.2, 3.0));
    }
    players.push_back(std::move(player));
  }
  return players;
}

TEST(MixedFamilies, GameConvergesAndMatchesOracle) {
  for (std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    SectionCost cost(std::make_unique<NonlinearPricing>(5.0, 0.875, 40.0),
                     OverloadCost{1.0}, olev::util::kw(40.0));
    Game game(mixed_family_players(seed), cost, 4, olev::util::kw(50.0));
    const GameResult result = game.run();
    ASSERT_TRUE(result.converged) << "seed " << seed;

    // Rebuild identical satisfactions for the centralized oracle.
    auto players = mixed_family_players(seed);
    std::vector<std::unique_ptr<Satisfaction>> satisfactions;
    std::vector<double> caps;
    for (auto& spec : players) {
      satisfactions.push_back(std::move(spec.satisfaction));
      caps.push_back(spec.p_max.value());
    }
    CentralOptions options;
    options.step_size = 2.0;
    const CentralResult central =
        maximize_welfare(satisfactions, caps, cost, 4, options);
    ASSERT_TRUE(central.converged) << "seed " << seed;
    EXPECT_NEAR(result.welfare, central.welfare,
                1e-3 * std::max(1.0, std::abs(central.welfare)))
        << "seed " << seed;
  }
}

TEST(MixedFamilies, EquilibriumBalancesLoad) {
  SectionCost cost(std::make_unique<NonlinearPricing>(5.0, 0.875, 40.0),
                   OverloadCost{1.0}, olev::util::kw(40.0));
  Game game(mixed_family_players(44), cost, 5, olev::util::kw(50.0));
  const GameResult result = game.run();
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.congestion.jain_fairness, 0.999);
}

// ---- scale monotonicity properties (the Fig. 5(b) shape) ----

double welfare_for(std::size_t players, std::size_t sections) {
  util::Rng rng(99);
  std::vector<PlayerSpec> specs;
  for (std::size_t n = 0; n < players; ++n) {
    PlayerSpec spec;
    spec.satisfaction = std::make_unique<LogSatisfaction>(rng.uniform(10.0, 30.0));
    spec.p_max = olev::util::kw(rng.uniform(20.0, 80.0));
    specs.push_back(std::move(spec));
  }
  SectionCost cost(std::make_unique<NonlinearPricing>(5.0, 0.875, 40.0),
                   OverloadCost{1.0}, olev::util::kw(40.0));
  Game game(std::move(specs), cost, sections, olev::util::kw(50.0));
  const GameResult result = game.run();
  EXPECT_TRUE(result.converged);
  return result.welfare;
}

TEST(GameScaling, WelfareIncreasesWithSections) {
  // More charging sections -> more capacity -> higher social welfare.
  double prev = welfare_for(20, 2);
  for (std::size_t sections : {4u, 8u, 16u, 32u}) {
    const double w = welfare_for(20, sections);
    EXPECT_GE(w, prev - 1e-9) << "sections=" << sections;
    prev = w;
  }
}

TEST(GameScaling, WelfareIncreasesWithPlayers) {
  // More OLEVs served -> higher aggregate satisfaction (Fig. 5(b)).
  double prev = welfare_for(5, 10);
  for (std::size_t players : {10u, 20u, 40u}) {
    const double w = welfare_for(players, 10);
    EXPECT_GT(w, prev) << "players=" << players;
    prev = w;
  }
}

}  // namespace
}  // namespace olev::core
