#include "core/welfare.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/game.h"

namespace olev::core {
namespace {

SectionCost make_cost(double cap = 50.0) {
  return SectionCost(std::make_unique<NonlinearPricing>(8.0, 0.875, cap),
                     OverloadCost{1.5}, olev::util::kw(cap));
}

std::vector<std::unique_ptr<Satisfaction>> two_players() {
  std::vector<std::unique_ptr<Satisfaction>> players;
  players.push_back(std::make_unique<LogSatisfaction>(10.0));
  players.push_back(std::make_unique<LogSatisfaction>(5.0));
  return players;
}

TEST(SocialWelfare, EmptyScheduleIsZero) {
  // W(0) = sum U(0) - sum (Z(0) - Z(0)) = 0: idle capacity carries no cost.
  const SectionCost z = make_cost();
  const auto players = two_players();
  PowerSchedule schedule(2, 3);
  EXPECT_NEAR(social_welfare(players, z, schedule), 0.0, 1e-12);
}

TEST(SocialWelfare, MatchesManualComputation) {
  const SectionCost z = make_cost();
  const auto players = two_players();
  PowerSchedule schedule(2, 2);
  schedule.set(0, 0, 3.0);
  schedule.set(0, 1, 1.0);
  schedule.set(1, 1, 2.0);
  const double expected = players[0]->value(4.0) + players[1]->value(2.0) -
                          (z.value(3.0) - z.value(0.0)) -
                          (z.value(3.0) - z.value(0.0));
  EXPECT_NEAR(social_welfare(players, z, schedule), expected, 1e-12);
}

TEST(SocialWelfare, InvariantToIdleSections) {
  // Adding empty sections must not change welfare (the Fig. 5(b) sweep
  // varies C; welfare must be comparable across C).
  const SectionCost z = make_cost();
  const auto players = two_players();
  PowerSchedule narrow(2, 1);
  narrow.set(0, 0, 2.0);
  PowerSchedule wide(2, 5);
  wide.set(0, 0, 2.0);
  EXPECT_NEAR(social_welfare(players, z, narrow),
              social_welfare(players, z, wide), 1e-12);
}

TEST(SocialWelfare, PlayerCountMismatchThrows) {
  const SectionCost z = make_cost();
  const auto players = two_players();
  PowerSchedule schedule(3, 2);
  EXPECT_THROW(social_welfare(players, z, schedule), std::invalid_argument);
}

TEST(TotalPayments, ExceedsTotalCostIncreaseWithManyPlayers) {
  // Each player pays its externality against the *other* players' load, so
  // the payments of Game's fixed point over-recover the cost increase
  // (standard VCG property under convex costs).
  std::vector<PlayerSpec> players;
  for (const double weight : {10.0, 20.0, 30.0}) {
    PlayerSpec player;
    player.satisfaction = std::make_unique<LogSatisfaction>(weight);
    player.p_max = olev::util::kw(60.0);
    players.push_back(std::move(player));
  }
  Game game(std::move(players), make_cost(), 2, olev::util::kw(50.0));
  const GameResult result = game.run();
  ASSERT_TRUE(result.converged);
  double payments = 0.0;
  for (const double payment : result.payments) payments += payment;
  const SectionCost z = make_cost();
  double cost_increase = 0.0;
  for (const double load : result.schedule.column_totals()) {
    cost_increase += z.value(load) - z.value(0.0);
  }
  EXPECT_GT(cost_increase, 0.0);
  EXPECT_GE(payments, cost_increase - 1e-9);
}

TEST(CongestionReport, PerSectionDegrees) {
  PowerSchedule schedule(2, 2);
  schedule.set(0, 0, 30.0);
  schedule.set(1, 0, 15.0);
  schedule.set(0, 1, 60.0);
  const CongestionReport report = congestion_report(schedule, olev::util::kw(100.0));
  ASSERT_EQ(report.per_section.size(), 2u);
  EXPECT_NEAR(report.per_section[0], 0.45, 1e-12);
  EXPECT_NEAR(report.per_section[1], 0.60, 1e-12);
  EXPECT_NEAR(report.mean, 0.525, 1e-12);
  EXPECT_NEAR(report.max, 0.60, 1e-12);
}

TEST(CongestionReport, FairnessDetectsImbalance) {
  PowerSchedule balanced(1, 2);
  balanced.set(0, 0, 10.0);
  balanced.set(0, 1, 10.0);
  PowerSchedule skewed(1, 2);
  skewed.set(0, 0, 20.0);
  const auto fair = congestion_report(balanced, olev::util::kw(100.0));
  const auto unfair = congestion_report(skewed, olev::util::kw(100.0));
  EXPECT_NEAR(fair.jain_fairness, 1.0, 1e-12);
  EXPECT_LT(unfair.jain_fairness, 0.6);
}

TEST(CongestionReport, RejectsBadPLine) {
  PowerSchedule schedule(1, 1);
  EXPECT_THROW((void)congestion_report(schedule, olev::util::kw(0.0)), std::invalid_argument);
  EXPECT_THROW((void)congestion_report(schedule, olev::util::kw(-5.0)), std::invalid_argument);
}

}  // namespace
}  // namespace olev::core
