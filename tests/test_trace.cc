#include "core/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "obs/report.h"
#include "util/sysinfo.h"

namespace olev::core {
namespace {

GameResult run_small_game(bool record_trajectory) {
  std::vector<PlayerSpec> players;
  for (double w : {10.0, 20.0}) {
    PlayerSpec player;
    player.satisfaction = std::make_unique<LogSatisfaction>(w);
    player.p_max = olev::util::kw(60.0);
    players.push_back(std::move(player));
  }
  SectionCost cost(std::make_unique<NonlinearPricing>(5.0, 0.875, 40.0),
                   OverloadCost{1.0}, olev::util::kw(40.0));
  GameConfig config;
  config.record_trajectory = record_trajectory;
  Game game(std::move(players), cost, 3, olev::util::kw(50.0), config);
  return game.run();
}

TEST(Trace, ContainsOutcomeFields) {
  const GameResult result = run_small_game(false);
  const std::string json = to_json(result);
  EXPECT_NE(json.find("\"converged\":true"), std::string::npos);
  EXPECT_NE(json.find("\"players\":2"), std::string::npos);
  EXPECT_NE(json.find("\"sections\":3"), std::string::npos);
  EXPECT_NE(json.find("\"requests\":["), std::string::npos);
  EXPECT_NE(json.find("\"jain_fairness\":"), std::string::npos);
  EXPECT_NE(json.find("\"trajectory\":[]"), std::string::npos);
}

TEST(Trace, TrajectoryEntriesSerialized) {
  const GameResult result = run_small_game(true);
  const std::string json = to_json(result);
  EXPECT_NE(json.find("\"trajectory\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"update\":1"), std::string::npos);
  EXPECT_NE(json.find("\"mean_congestion\":"), std::string::npos);
}

TEST(Trace, ScheduleMatrixShape) {
  const GameResult result = run_small_game(false);
  const std::string json = to_json(result);
  // Two rows of three entries each: "schedule":[[a,b,c],[d,e,f]]
  const auto pos = json.find("\"schedule\":[[");
  ASSERT_NE(pos, std::string::npos);
}

TEST(Trace, BalancedJsonBrackets) {
  const GameResult result = run_small_game(true);
  const std::string json = to_json(result);
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(Trace, SaveJsonWritesFile) {
  const GameResult result = run_small_game(false);
  const std::string path = ::testing::TempDir() + "/olev_trace_test.json";
  save_json(result, path);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), to_json(result) + "\n");
  std::remove(path.c_str());
  EXPECT_THROW(save_json(result, "/nonexistent_dir_xyz/trace.json"),
               std::runtime_error);
}

TEST(Trace, SaveJsonErrorNamesPathAndErrno) {
  const GameResult result = run_small_game(false);
  try {
    save_json(result, "/nonexistent_dir_xyz/trace.json");
    FAIL() << "save_json should have thrown";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("/nonexistent_dir_xyz/trace.json"), std::string::npos)
        << what;
    EXPECT_NE(what.find("No such file"), std::string::npos) << what;
  }
}

TEST(Trace, SweepReportSerializesEveryField) {
  SweepReport report;
  report.scenarios = 4;
  report.threads = 2;
  report.converged = 3;
  report.total_updates = 123;
  report.wall_seconds = 2.0;
  report.scenarios_per_second = 2.0;
  report.response_hit_ratio = 0.25;
  report.section_reuse_ratio = 0.75;
  report.workers.resize(2);
  report.workers[0] = {0, 3, 1.5, 0.75};
  report.workers[1] = {1, 1, 0.5, 0.25};
  const std::vector<double> updates{10.0, 20.0, 30.0, 63.0};
  report.updates_per_scenario =
      obs::bucketize("sweep.updates_per_scenario", {25.0}, updates);

  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"scenarios\":4"), std::string::npos);
  EXPECT_NE(json.find("\"threads\":2"), std::string::npos);
  EXPECT_NE(json.find("\"converged\":3"), std::string::npos);
  EXPECT_NE(json.find("\"response_hit_ratio\":0.25"), std::string::npos);
  // sum(busy) / (threads * wall) = 2.0 / 4.0
  EXPECT_NE(json.find("\"worker_utilization\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"busy_seconds\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"bounds\":[25]"), std::string::npos);
  EXPECT_NE(json.find("\"counts\":[2,2]"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":123"), std::string::npos);

  const std::string path = ::testing::TempDir() + "/olev_sweep_report.json";
  save_json(report, path);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), json + "\n");
  std::remove(path.c_str());
}

TEST(Trace, AvailableConcurrencyIsPositiveAndAffinityBounded) {
  const std::size_t available = util::available_concurrency();
  EXPECT_GE(available, 1u);
  // The affinity mask can only restrict, never exceed, the machine's
  // logical CPU count (when the latter is known at all).
  const unsigned hardware = std::thread::hardware_concurrency();
  if (hardware > 0) {
    EXPECT_LE(available, static_cast<std::size_t>(hardware));
  }
}

}  // namespace
}  // namespace olev::core
