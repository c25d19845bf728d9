// Heterogeneous corridors: Game built with one SectionCost per section
// (mixed speed limits give each section its own P_line and Z_c).
#include "core/game.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

namespace olev::core {
namespace {

SectionCost make_cost(double cap) {
  return SectionCost(std::make_unique<NonlinearPricing>(8.0, 0.875, cap),
                     OverloadCost{1.5}, olev::util::kw(cap));
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

std::vector<SectionCost> uniform_costs(std::size_t count, double cap) {
  std::vector<SectionCost> costs;
  for (std::size_t c = 0; c < count; ++c) costs.push_back(make_cost(cap));
  return costs;
}

/// Z_c'(P_c) per section at the fixed point.
std::vector<double> marginal_prices(const std::vector<SectionCost>& costs,
                                    const GameResult& result) {
  std::vector<double> prices;
  for (std::size_t c = 0; c < costs.size(); ++c) {
    prices.push_back(costs[c].derivative(result.schedule.column_total(c)));
  }
  return prices;
}

TEST(HeteroGame, Validation) {
  EXPECT_THROW(Game({}, uniform_costs(2, 40.0), {50.0, 50.0}),
               std::invalid_argument);
  EXPECT_THROW(Game(make_players({10.0}), uniform_costs(2, 40.0), {50.0}),
               std::invalid_argument);
  std::vector<SectionCost> linear;
  linear.emplace_back(std::make_unique<LinearPricing>(1.0), OverloadCost{0.0},
                      olev::util::kw(40.0));
  EXPECT_THROW(Game(make_players({10.0}), std::move(linear), {50.0}),
               std::invalid_argument);
  // V'' = 0 plus an overload hinge: the fill volume jumps at the cap price,
  // so the per-section corridor rejects it as well.
  std::vector<SectionCost> hinged;
  hinged.emplace_back(std::make_unique<LinearPricing>(1.0), OverloadCost{1.5},
                      olev::util::kw(40.0));
  hinged.push_back(make_cost(40.0));
  EXPECT_THROW(Game(make_players({10.0}), std::move(hinged), {50.0, 50.0}),
               std::invalid_argument);
  auto masked = make_players({10.0});
  masked[0].allowed_sections = {true, true};
  EXPECT_THROW(Game(std::move(masked), uniform_costs(2, 40.0), {50.0, 50.0}),
               std::invalid_argument);
}

TEST(HeteroGame, UniformSectionsMatchGame) {
  const std::vector<double> weights{10.0, 25.0, 18.0};
  Game hetero(make_players(weights), uniform_costs(3, 40.0),
              {50.0, 50.0, 50.0});
  const GameResult hetero_result = hetero.run();
  ASSERT_TRUE(hetero_result.converged);

  Game classic(make_players(weights), make_cost(40.0), 3, olev::util::kw(50.0));
  const GameResult classic_result = classic.run();
  ASSERT_TRUE(classic_result.converged);

  EXPECT_NEAR(hetero_result.welfare, classic_result.welfare, 1e-3);
  for (std::size_t n = 0; n < weights.size(); ++n) {
    EXPECT_NEAR(hetero_result.requests[n], classic_result.requests[n], 1e-2)
        << "player " << n;
  }
}

TEST(HeteroGame, ConvergesWithMixedCaps) {
  std::vector<SectionCost> costs;
  costs.push_back(make_cost(20.0));
  costs.push_back(make_cost(45.0));
  costs.push_back(make_cost(70.0));
  Game game(make_players({15.0, 30.0, 22.0, 12.0}), std::move(costs),
            {25.0, 55.0, 85.0});
  const GameResult result = game.run();
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.welfare, 0.0);
}

TEST(HeteroGame, MarginalPricesEqualizeAcrossLoadedSections) {
  // The KKT signature of the generalized fill: every section carrying load
  // shows the same marginal price at the fixed point.
  std::vector<SectionCost> costs;
  costs.push_back(make_cost(20.0));
  costs.push_back(make_cost(45.0));
  costs.push_back(make_cost(70.0));
  Game game(make_players({20.0, 35.0}), costs, {25.0, 55.0, 85.0});
  const GameResult result = game.run();
  ASSERT_TRUE(result.converged);
  const std::vector<double> marginal = marginal_prices(costs, result);
  double reference = -1.0;
  for (std::size_t c = 0; c < 3; ++c) {
    if (result.schedule.column_total(c) > 1e-6) {
      if (reference < 0.0) {
        reference = marginal[c];
      } else {
        EXPECT_NEAR(marginal[c], reference, 1e-3 * reference)
            << "section " << c;
      }
    }
  }
  ASSERT_GE(reference, 0.0);
}

TEST(HeteroGame, LoadsAreNotEqualizedAcrossMixedSections) {
  // Equal marginal price != equal load: the big-cap section carries more.
  std::vector<SectionCost> costs;
  costs.push_back(make_cost(15.0));
  costs.push_back(make_cost(90.0));
  Game game(make_players({25.0, 25.0}), std::move(costs), {20.0, 100.0});
  const GameResult result = game.run();
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.schedule.column_total(1),
            result.schedule.column_total(0) * 1.5);
}

TEST(HeteroGame, FeasibilityInvariants) {
  std::vector<SectionCost> costs;
  costs.push_back(make_cost(30.0));
  costs.push_back(make_cost(60.0));
  const double p_max = 35.0;
  Game game(make_players({18.0, 27.0, 9.0}, p_max), std::move(costs),
            {35.0, 70.0});
  const GameResult result = game.run();
  ASSERT_TRUE(result.converged);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_LE(result.requests[n], p_max + 1e-6);
    EXPECT_GE(result.payments[n], -1e-9);
    for (double v : result.schedule.row(n)) EXPECT_GE(v, -1e-12);
  }
}

TEST(HeteroGame, RandomOrderSameEquilibrium) {
  auto build = [](UpdateOrder order) {
    std::vector<SectionCost> costs;
    costs.push_back(make_cost(25.0));
    costs.push_back(make_cost(55.0));
    GameConfig config;
    config.order = order;
    config.max_updates = 100000;
    return Game(make_players({14.0, 33.0}), std::move(costs), {30.0, 60.0},
                config);
  };
  Game a = build(UpdateOrder::kRoundRobin);
  Game b = build(UpdateOrder::kUniformRandom);
  const auto ra = a.run();
  const auto rb = b.run();
  ASSERT_TRUE(ra.converged);
  ASSERT_TRUE(rb.converged);
  for (std::size_t n = 0; n < 2; ++n) {
    EXPECT_NEAR(ra.requests[n], rb.requests[n], 1e-2);
  }
}

TEST(HeteroGame, RejectsTheGreedyScheduler) {
  // The linear baseline's greedy fill needs one cost for every section.
  GameConfig config;
  config.scheduler = SchedulerKind::kGreedy;
  EXPECT_THROW(Game(make_players({10.0}), uniform_costs(2, 40.0), {50.0, 50.0},
                    config),
               std::invalid_argument);
}

TEST(HeteroGame, CongestionDividesEachLoadByItsOwnLineCapacity) {
  std::vector<SectionCost> costs;
  costs.push_back(make_cost(20.0));
  costs.push_back(make_cost(45.0));
  costs.push_back(make_cost(70.0));
  const std::vector<double> p_lines{25.0, 55.0, 85.0};
  Game game(make_players({30.0, 45.0, 40.0}), std::move(costs), p_lines);
  const GameResult result = game.run();
  ASSERT_TRUE(result.converged);
  ASSERT_EQ(result.congestion.per_section.size(), p_lines.size());
  for (std::size_t c = 0; c < p_lines.size(); ++c) {
    EXPECT_GT(result.schedule.column_total(c), 0.0) << "section " << c;
    EXPECT_DOUBLE_EQ(result.congestion.per_section[c],
                     result.schedule.column_total(c) / p_lines[c])
        << "section " << c;
  }
}

TEST(HeteroGame, PaymentsRecoverTheCorridorCost) {
  // VCG over-recovery on convex Z_c: each OLEV pays the cost its own load
  // adds on top of the others', and those increments sum to at least the
  // corridor's whole cost increase sum_c [Z_c(P_c) - Z_c(0)].
  std::vector<SectionCost> costs;
  costs.push_back(make_cost(20.0));
  costs.push_back(make_cost(45.0));
  costs.push_back(make_cost(70.0));
  Game game(make_players({15.0, 30.0, 22.0, 12.0}), costs, {25.0, 55.0, 85.0});
  const GameResult result = game.run();
  ASSERT_TRUE(result.converged);
  double corridor_cost = 0.0;
  for (std::size_t c = 0; c < costs.size(); ++c) {
    corridor_cost += costs[c].value(result.schedule.column_total(c)) -
                     costs[c].value(0.0);
  }
  double paid = 0.0;
  for (double payment : result.payments) paid += payment;
  EXPECT_GT(corridor_cost, 0.0);
  EXPECT_GE(paid, corridor_cost - 1e-9 * corridor_cost);
}

}  // namespace
}  // namespace olev::core
