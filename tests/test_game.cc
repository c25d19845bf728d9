#include "core/game.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/best_response.h"
#include "core/central.h"
#include "core/payment.h"
#include "core/welfare.h"
#include "obs/obs.h"

namespace olev::core {
namespace {

SectionCost make_cost(double cap = 40.0) {
  return SectionCost(std::make_unique<NonlinearPricing>(5.0, 0.875, cap),
                     OverloadCost{1.0}, olev::util::kw(cap));
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

TEST(Game, ConstructorValidation) {
  EXPECT_THROW(Game({}, make_cost(), 2, olev::util::kw(50.0)), std::invalid_argument);
  EXPECT_THROW(Game(make_players({1.0}), make_cost(), 0, olev::util::kw(50.0)),
               std::invalid_argument);
  EXPECT_THROW(Game(make_players({1.0}), make_cost(), 2, olev::util::kw(0.0)),
               std::invalid_argument);
  auto players = make_players({1.0});
  players[0].p_max = olev::util::kw(-1.0);
  EXPECT_THROW(Game(std::move(players), make_cost(), 2, olev::util::kw(50.0)),
               std::invalid_argument);
}

TEST(Game, SinglePlayerConvergesInOneCycle) {
  GameConfig config;
  Game game(make_players({10.0}), make_cost(), 3, olev::util::kw(50.0), config);
  const GameResult result = game.run();
  EXPECT_TRUE(result.converged);
  // One update sets the best response; the next confirms no change.
  EXPECT_LE(result.updates, 3u);
}

TEST(Game, ConvergesForManyPlayers) {
  Game game(make_players({10.0, 20.0, 15.0, 8.0, 12.0}), make_cost(), 4, olev::util::kw(50.0));
  const GameResult result = game.run();
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.welfare, 0.0);
}

TEST(Game, FixedPointIsMutualBestResponse) {
  Game game(make_players({10.0, 20.0, 15.0}), make_cost(), 3, olev::util::kw(50.0));
  const GameResult result = game.run();
  ASSERT_TRUE(result.converged);
  const SectionCost z = make_cost();
  for (std::size_t n = 0; n < 3; ++n) {
    const auto others = result.schedule.column_totals_excluding(n);
    LogSatisfaction u(n == 0 ? 10.0 : (n == 1 ? 20.0 : 15.0));
    const BestResponse response = best_response(u, z, others, olev::util::kw(200.0));
    EXPECT_NEAR(response.p_star, result.requests[n], 1e-5) << "player " << n;
  }
}

TEST(Game, EquilibriumMatchesCentralOptimum) {
  // Theorem IV.1: the asynchronous fixed point attains the social optimum.
  const std::vector<double> weights{10.0, 25.0, 18.0};
  const double p_max = 60.0;
  Game game(make_players(weights, p_max), make_cost(), 3, olev::util::kw(50.0));
  const GameResult game_result = game.run();
  ASSERT_TRUE(game_result.converged);

  std::vector<std::unique_ptr<Satisfaction>> players;
  for (double w : weights) players.push_back(std::make_unique<LogSatisfaction>(w));
  const std::vector<double> caps(weights.size(), p_max);
  const CentralResult central = maximize_welfare(players, caps, make_cost(), 3);
  ASSERT_TRUE(central.converged);

  EXPECT_NEAR(game_result.welfare, central.welfare, 1e-4);
  for (std::size_t n = 0; n < weights.size(); ++n) {
    EXPECT_NEAR(game_result.requests[n], central.schedule.row_total(n), 1e-2)
        << "player " << n;
  }
}

TEST(Game, RandomOrderReachesSameEquilibrium) {
  GameConfig round_robin;
  round_robin.order = UpdateOrder::kRoundRobin;
  GameConfig random;
  random.order = UpdateOrder::kUniformRandom;
  random.max_updates = 100000;

  Game a(make_players({10.0, 20.0, 15.0}), make_cost(), 3, olev::util::kw(50.0), round_robin);
  Game b(make_players({10.0, 20.0, 15.0}), make_cost(), 3, olev::util::kw(50.0), random);
  const GameResult ra = a.run();
  const GameResult rb = b.run();
  ASSERT_TRUE(ra.converged);
  ASSERT_TRUE(rb.converged);
  EXPECT_NEAR(ra.welfare, rb.welfare, 1e-5);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_NEAR(ra.requests[n], rb.requests[n], 1e-3);
  }
}

TEST(Game, EquilibriumBalancesLoad) {
  // Lemma IV.1 balancing: at the fixed point, symmetric sections carry
  // near-identical load (the Fig. 5(c) nonlinear curve).
  Game game(make_players({30.0, 30.0, 30.0, 30.0}), make_cost(), 5, olev::util::kw(50.0));
  const GameResult result = game.run();
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.congestion.jain_fairness, 0.9999);
}

TEST(Game, PaymentsMatchExternality) {
  Game game(make_players({12.0, 18.0}), make_cost(), 2, olev::util::kw(50.0));
  const GameResult result = game.run();
  const SectionCost z = make_cost();
  for (std::size_t n = 0; n < 2; ++n) {
    const auto others = result.schedule.column_totals_excluding(n);
    EXPECT_NEAR(result.payments[n],
                externality_payment(z, others, result.schedule.row(n)), 1e-9);
  }
}

TEST(Game, TrajectoryRecordsEveryUpdate) {
  GameConfig config;
  config.record_trajectory = true;
  Game game(make_players({10.0, 20.0}), make_cost(), 2, olev::util::kw(50.0), config);
  const GameResult result = game.run();
  ASSERT_TRUE(result.converged);
  ASSERT_EQ(result.trajectory.size(), result.updates);
  // Welfare is (weakly) increasing along asynchronous best responses after
  // the first full cycle.
  for (std::size_t i = 3; i < result.trajectory.size(); ++i) {
    EXPECT_GE(result.trajectory[i].welfare,
              result.trajectory[i - 1].welfare - 1e-6);
  }
  // Updates are numbered 1..K.
  EXPECT_EQ(result.trajectory.front().update, 1u);
  EXPECT_EQ(result.trajectory.back().update, result.updates);
}

TEST(Game, TrajectoryCongestionMatchesAFreshFoldOfTheSchedule) {
  // Recorded trajectories read Game's cached, delta-maintained column
  // totals; every entry must agree with a fresh fold of the schedule.
  GameConfig config;
  config.record_trajectory = true;
  const std::vector<double> weights{10.0, 25.0, 18.0, 7.0, 30.0};
  Game recorded(make_players(weights), make_cost(), 4, olev::util::kw(50.0),
                config);
  const GameResult result = recorded.run();
  ASSERT_TRUE(result.converged);
  ASSERT_EQ(result.trajectory.size(), result.updates);

  // A second game takes the same round-robin updates one at a time.
  Game replay(make_players(weights), make_cost(), 4, olev::util::kw(50.0));
  for (const UpdateMetrics& entry : result.trajectory) {
    replay.step();
    const double fresh =
        congestion_report(replay.schedule(), olev::util::kw(50.0)).mean;
    EXPECT_NEAR(entry.mean_congestion, fresh, 1e-12 * std::abs(fresh))
        << "update " << entry.update;
  }
}

TEST(Game, MaxUpdatesBoundsRun) {
  GameConfig config;
  config.max_updates = 5;
  config.epsilon = 0.0;  // never converge
  Game game(make_players({10.0, 20.0}), make_cost(), 2, olev::util::kw(50.0), config);
  const GameResult result = game.run();
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.updates, 5u);
}

TEST(Game, WarmStartKeepsSchedule) {
  Game game(make_players({10.0, 20.0}), make_cost(), 2, olev::util::kw(50.0));
  const GameResult first = game.run();
  ASSERT_TRUE(first.converged);
  // Warm restart from the fixed point: converges immediately (one cycle).
  const GameResult second = game.run(/*warm_start=*/true);
  EXPECT_TRUE(second.converged);
  EXPECT_LE(second.updates, 2u);
  EXPECT_NEAR(second.welfare, first.welfare, 1e-9);
}

TEST(Game, UpdatePlayerOutOfRangeThrows) {
  Game game(make_players({10.0}), make_cost(), 2, olev::util::kw(50.0));
  EXPECT_THROW(game.update_player(5), std::out_of_range);
}

TEST(Game, GreedySchedulerUnbalancesLoad) {
  // The linear-pricing baseline: greedy fill leaves sections unequal
  // (Fig. 5(c) "linear pricing" curve).
  SectionCost linear(std::make_unique<LinearPricing>(0.02), OverloadCost{0.0},
                     olev::util::kw(30.0));
  GameConfig config;
  config.scheduler = SchedulerKind::kGreedy;
  Game game(make_players({60.0, 60.0}, 50.0), linear, 4, olev::util::kw(50.0), config);
  const GameResult result = game.run();
  ASSERT_TRUE(result.converged);
  EXPECT_LT(result.congestion.jain_fairness, 0.9);
  // First sections saturated at the cap, later sections idle.
  EXPECT_GT(result.schedule.column_total(0), result.schedule.column_total(3));
}

TEST(Game, GreedyScalarRequestSolvesLinearFoc) {
  // Under V = beta x the baseline best response solves U'(p) = beta.
  SectionCost linear(std::make_unique<LinearPricing>(0.5), OverloadCost{0.0},
                     olev::util::kw(1000.0));
  GameConfig config;
  config.scheduler = SchedulerKind::kGreedy;
  Game game(make_players({10.0}, 500.0), linear, 3, olev::util::kw(50.0), config);
  const GameResult result = game.run();
  // w/(1+p) = beta -> p = w/beta - 1 = 19.
  EXPECT_NEAR(result.requests[0], 19.0, 1e-6);
}

TEST(Game, PathMaskConfinesAllocation) {
  auto players = make_players({20.0, 20.0});
  players[0].allowed_sections = {true, true, false, false};
  players[1].allowed_sections = {false, false, true, true};
  Game game(std::move(players), make_cost(), 4, olev::util::kw(50.0));
  const GameResult result = game.run();
  ASSERT_TRUE(result.converged);
  // Each player's power stays on its own path.
  EXPECT_DOUBLE_EQ(result.schedule.at(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(result.schedule.at(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(result.schedule.at(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(result.schedule.at(1, 1), 0.0);
  EXPECT_GT(result.requests[0], 0.0);
  EXPECT_GT(result.requests[1], 0.0);
  // Balance holds within each admissible pair.
  EXPECT_NEAR(result.schedule.at(0, 0), result.schedule.at(0, 1), 1e-6);
  EXPECT_NEAR(result.schedule.at(1, 2), result.schedule.at(1, 3), 1e-6);
}

TEST(Game, OverlappingMasksStillConverge) {
  auto players = make_players({15.0, 25.0, 10.0});
  players[0].allowed_sections = {true, true, false};
  players[1].allowed_sections = {false, true, true};
  // player 2: unrestricted (empty mask).
  Game game(std::move(players), make_cost(), 3, olev::util::kw(50.0));
  const GameResult result = game.run();
  EXPECT_TRUE(result.converged);
  EXPECT_DOUBLE_EQ(result.schedule.at(0, 2), 0.0);
  EXPECT_DOUBLE_EQ(result.schedule.at(1, 0), 0.0);
}

TEST(Game, MaskValidation) {
  auto players = make_players({10.0});
  players[0].allowed_sections = {true};  // wrong length for 3 sections
  EXPECT_THROW(Game(std::move(players), make_cost(), 3, olev::util::kw(50.0)),
               std::invalid_argument);
  auto blocked = make_players({10.0});
  blocked[0].allowed_sections = {false, false, false};
  EXPECT_THROW(Game(std::move(blocked), make_cost(), 3, olev::util::kw(50.0)),
               std::invalid_argument);
}

TEST(Game, CurrentMetricsAccessors) {
  Game game(make_players({10.0, 20.0}), make_cost(), 2, olev::util::kw(50.0));
  (void)game.run();
  EXPECT_GT(game.current_welfare(), 0.0);
  EXPECT_GT(game.current_congestion().mean, 0.0);
}

TEST(Game, WelfareOnDemandMatchesTheFinalFold) {
  // Trajectory entries and current_welfare() evaluate U_n and Z_c over the
  // cached totals; finalize folds the schedule afresh.  Check a one-cost,
  // a masked and a per-section corridor.
  GameConfig config;
  config.record_trajectory = true;
  const std::vector<double> weights{12.0, 25.0, 18.0, 30.0};
  std::vector<Game> games;
  games.emplace_back(make_players(weights), make_cost(), 4,
                     olev::util::kw(50.0), config);
  auto masked = make_players(weights);
  masked[0].allowed_sections = {true, true, false, false};
  masked[1].allowed_sections = {false, true, true, true};
  masked[3].allowed_sections = {false, false, false, true};
  games.emplace_back(std::move(masked), make_cost(), 4, olev::util::kw(50.0),
                     config);
  std::vector<SectionCost> costs;
  for (double cap : {30.0, 40.0, 55.0, 45.0}) costs.push_back(make_cost(cap));
  games.emplace_back(make_players(weights), std::move(costs),
                     std::vector<double>{40.0, 50.0, 60.0, 55.0}, config);
  for (std::size_t g = 0; g < games.size(); ++g) {
    const GameResult result = games[g].run();
    ASSERT_TRUE(result.converged) << "game " << g;
    ASSERT_FALSE(result.trajectory.empty());
    ASSERT_GT(result.welfare, 0.0);
    const double tolerance = 1e-12 * result.welfare;
    EXPECT_NEAR(result.trajectory.back().welfare, result.welfare, tolerance)
        << "game " << g;
    EXPECT_NEAR(games[g].current_welfare(), result.welfare, tolerance)
        << "game " << g;
  }
}

#if OLEV_OBS_ENABLED
TEST(GameTelemetry, RunAddsItsBestResponseTallyToTheRegistryOnce) {
  const auto solves = [] {
    return obs::Registry::instance().snapshot().counter_value(
        "core.best_response.solves");
  };
  const auto iterations = [] {
    const obs::MetricsSnapshot snapshot = obs::Registry::instance().snapshot();
    const obs::HistogramSnapshot* histogram =
        snapshot.histogram("core.best_response.iterations");
    return histogram == nullptr ? obs::HistogramSnapshot{} : *histogram;
  };

  // One player: its b is zero on every update, so every update repeats the
  // solve a lone best_response() call makes.
  const std::size_t sections = 3;
  Game lone(make_players({10.0}), make_cost(), sections, olev::util::kw(50.0));
  std::uint64_t solves_before = solves();
  obs::HistogramSnapshot iterations_before = iterations();
  const GameResult lone_result = lone.run();
  ASSERT_TRUE(lone_result.converged);
  EXPECT_EQ(solves() - solves_before, lone_result.updates);
  const LogSatisfaction u(10.0);
  const std::vector<double> zeros(sections, 0.0);
  const Kilowatts p_max = olev::util::kw(200.0);
  const BestResponse reference = best_response(u, make_cost(), zeros, p_max);
  ASSERT_GT(reference.iterations, 0);
  const obs::HistogramSnapshot lone_iterations = iterations();
  EXPECT_EQ(lone_iterations.count - iterations_before.count,
            lone_result.updates + 1);
  EXPECT_EQ(lone_iterations.sum - iterations_before.sum,
            static_cast<double>(reference.iterations) *
                static_cast<double>(lone_result.updates + 1));
  // The best_response() call above added one solve of its own.
  EXPECT_EQ(solves() - solves_before, lone_result.updates + 1);

  // The solver core records nothing itself.
  solves_before = solves();
  SortedLoads loads(std::vector<double>(sections, 1.0));
  std::vector<double> row(sections);
  (void)best_response_into(u, make_cost(), loads, p_max, row);
  EXPECT_EQ(solves(), solves_before);

  // A masked player with no admissible section never solves; everyone else
  // solves on every update.
  auto players = make_players({10.0, 20.0, 15.0});
  players[1].allowed_sections = {false, false, false};
  players[1].p_max = olev::util::kw(0.0);
  players[2].allowed_sections = {true, false, true};
  GameConfig config;
  config.record_trajectory = true;
  Game masked(std::move(players), make_cost(), sections, olev::util::kw(50.0),
              config);
  solves_before = solves();
  iterations_before = iterations();
  const GameResult result = masked.run();
  ASSERT_TRUE(result.converged);
  std::uint64_t solving_updates = 0;
  for (const UpdateMetrics& entry : result.trajectory) {
    if (entry.player != 1) ++solving_updates;
  }
  EXPECT_EQ(solves() - solves_before, solving_updates);
  EXPECT_EQ(iterations().count - iterations_before.count, solving_updates);
}
#endif

TEST(GameTelemetry, FineTraceRecordsOneUpdateSpanPerUpdate) {
  obs::Tracer& tracer = obs::Tracer::instance();
  const auto update_events = [&] {
    const std::string json = tracer.to_json();
    const std::string needle = "\"name\":\"game.update\"";
    std::size_t count = 0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + needle.size())) {
      ++count;
    }
    return count;
  };
  const auto run_traced = [&](obs::TraceDetail detail) {
    Game game(make_players({10.0, 20.0, 15.0}), make_cost(), 3,
              olev::util::kw(50.0));
    tracer.start(detail);
    const GameResult result = game.run();
    tracer.stop();
    EXPECT_TRUE(result.converged);
    return result.updates;
  };

  (void)run_traced(obs::TraceDetail::kPhase);
  EXPECT_EQ(update_events(), 0u);
  const std::size_t updates = run_traced(obs::TraceDetail::kFine);
  // One begin and one end event per update.
#if OLEV_OBS_ENABLED
  EXPECT_EQ(update_events(), 2 * updates);
#else
  EXPECT_GT(updates, 0u);
  EXPECT_EQ(update_events(), 0u);
#endif
}

TEST(CacheCounters, RatiosAreZeroWhenEmptyAndBoundedOtherwise) {
  CacheCounters counters;
  EXPECT_DOUBLE_EQ(counters.section_reuse_ratio(), 0.0);

  counters.response_cache_hits = 3;
  counters.section_cost_reuses = 1;
  counters.section_cost_refreshes = 3;
  EXPECT_DOUBLE_EQ(counters.section_reuse_ratio(), 0.25);

  counters.reset();
  EXPECT_EQ(counters.response_cache_hits, 0u);
  EXPECT_EQ(counters.section_cost_refreshes, 0u);
  EXPECT_DOUBLE_EQ(counters.section_reuse_ratio(), 0.0);
}

TEST(CacheCounters, GamePopulatesRatios) {
  Game game(make_players({10.0, 20.0, 30.0}), make_cost(), 3,
            olev::util::kw(50.0));
  (void)game.update_player(0);
  const CacheCounters first = game.cache_counters();
  EXPECT_EQ(first.section_cost_refreshes, 3u);
  // Updating the same player again with no interleaved update re-solves the
  // same b to the same row: the request does not move, and commit_row finds
  // every section's load unchanged, so all three cost cells are reused.
  EXPECT_EQ(game.update_player(0), 0.0);
  const CacheCounters& counters = game.cache_counters();
  EXPECT_EQ(counters.section_cost_reuses - first.section_cost_reuses, 3u);
  EXPECT_EQ(counters.section_cost_refreshes, first.section_cost_refreshes);
  EXPECT_DOUBLE_EQ(counters.section_reuse_ratio(), 0.5);
  EXPECT_EQ(counters.response_cache_hits + counters.response_recomputes, 0u);
}

}  // namespace
}  // namespace olev::core
