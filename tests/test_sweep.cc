// run_sweep determinism and plumbing.
//
// The contract under test (src/core/sweep.h): results are bit-identical to
// serial execution regardless of the thread count, because every scenario is
// self-seeded and solved in isolation.  kUniformRandom is the order most
// likely to betray a shared-RNG bug, so it gets explicit coverage.

#include "core/sweep.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace olev::core {
namespace {

std::vector<ScenarioSpec> small_grid(UpdateOrder order) {
  std::vector<ScenarioSpec> specs;
  for (std::size_t players : {5, 10}) {
    for (std::size_t sections : {5, 10}) {
      for (PricingKind pricing : {PricingKind::kNonlinear, PricingKind::kLinear}) {
        ScenarioSpec spec;
        spec.label = std::to_string(players) + "x" + std::to_string(sections);
        spec.config.num_olevs = players;
        spec.config.num_sections = sections;
        spec.config.pricing = pricing;
        spec.config.beta_lbmp = olev::util::Price::per_mwh(16.0);
        spec.config.seed = 0x5eed + players;
        spec.config.game.order = order;
        spec.config.game.max_updates = 20000;
        specs.push_back(std::move(spec));
      }
    }
  }
  return specs;
}

// Bitwise equality: EXPECT_DOUBLE_EQ tolerates 4 ulps, the determinism
// contract tolerates zero.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_identical(const std::vector<SweepResult>& a,
                      const std::vector<SweepResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index);
    EXPECT_EQ(a[i].label, b[i].label);
    EXPECT_EQ(a[i].result.converged, b[i].result.converged);
    EXPECT_EQ(a[i].result.updates, b[i].result.updates);
    EXPECT_TRUE(same_bits(a[i].result.welfare, b[i].result.welfare))
        << "spec " << i;
    EXPECT_TRUE(same_bits(a[i].unit_payment_per_mwh, b[i].unit_payment_per_mwh))
        << "spec " << i;
    const auto& pa = a[i].result.schedule;
    const auto& pb = b[i].result.schedule;
    ASSERT_EQ(pa.players(), pb.players());
    ASSERT_EQ(pa.sections(), pb.sections());
    for (std::size_t n = 0; n < pa.players(); ++n) {
      for (std::size_t c = 0; c < pa.sections(); ++c) {
        EXPECT_TRUE(same_bits(pa.at(n, c), pb.at(n, c)))
            << "spec " << i << " cell (" << n << "," << c << ")";
      }
    }
    for (std::size_t n = 0; n < a[i].result.payments.size(); ++n) {
      EXPECT_TRUE(same_bits(a[i].result.payments[n], b[i].result.payments[n]))
          << "spec " << i << " player " << n;
    }
  }
}

TEST(Sweep, ParallelIsBitIdenticalToSerial) {
  const auto specs = small_grid(UpdateOrder::kRoundRobin);
  SweepConfig serial;
  serial.threads = 1;
  const auto reference = run_sweep(specs, serial);

  const std::size_t hw = std::max(2u, std::thread::hardware_concurrency());
  for (std::size_t threads : {std::size_t{2}, hw}) {
    SweepConfig parallel;
    parallel.threads = threads;
    expect_identical(reference, run_sweep(specs, parallel));
  }
}

TEST(Sweep, UniformRandomOrderStaysDeterministic) {
  // The stochastic update order draws from the game's own seeded RNG; a
  // worker-shared RNG would make thread counts observable here.
  const auto specs = small_grid(UpdateOrder::kUniformRandom);
  SweepConfig serial;
  serial.threads = 1;
  const auto reference = run_sweep(specs, serial);

  SweepConfig parallel;
  parallel.threads = std::max(2u, std::thread::hardware_concurrency());
  expect_identical(reference, run_sweep(specs, parallel));

  // And rerunning the same specs reproduces the same results entirely.
  expect_identical(reference, run_sweep(specs, serial));
}

TEST(Sweep, ResultsKeepSpecOrderAndLabels) {
  auto specs = small_grid(UpdateOrder::kRoundRobin);
  SweepConfig config;
  config.threads = 4;
  const auto results = run_sweep(specs, config);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].label, specs[i].label);
    EXPECT_TRUE(results[i].result.converged) << "spec " << i;
    EXPECT_GT(results[i].result.welfare, 0.0) << "spec " << i;
  }
}

TEST(Sweep, DeriveSeedsRewritesPerIndexStreams) {
  std::vector<ScenarioSpec> specs(3);
  for (auto& spec : specs) {
    spec.config.num_olevs = 8;
    spec.config.num_sections = 6;
    spec.config.beta_lbmp = olev::util::Price::per_mwh(16.0);
    spec.config.seed = 0;  // overwritten below
    spec.config.game.max_updates = 20000;
  }
  SweepConfig config;
  config.threads = 1;
  config.derive_seeds = true;
  config.seed_base = 0xabcd;
  const auto derived = run_sweep(specs, config);

  // Identical configs + distinct derived seeds -> distinct draws.
  EXPECT_FALSE(same_bits(derived[0].result.welfare, derived[1].result.welfare));

  // Deriving is itself deterministic.
  const auto again = run_sweep(specs, config);
  expect_identical(derived, again);

  // And matches solving each spec alone with the same derived seed.
  ScenarioSpec lone = specs[2];
  lone.config.seed = util::derive_seed(config.seed_base, 2);
  lone.config.game.seed =
      util::derive_seed(config.seed_base ^ 0x736565702d67616dULL, 2);
  const SweepResult solo = solve_scenario(lone, 2);
  EXPECT_TRUE(same_bits(solo.result.welfare, derived[2].result.welfare));
}

TEST(Sweep, EmptySpecListYieldsEmptyResults) {
  EXPECT_TRUE(run_sweep({}).empty());
}

TEST(SweepReported, ResultsMatchPlainRunSweep) {
  const auto specs = small_grid(UpdateOrder::kRoundRobin);
  SweepConfig config;
  config.threads = 2;
  const auto plain = run_sweep(specs, config);
  const SweepRun reported = run_sweep_reported(specs, config);
  expect_identical(plain, reported.results);
}

TEST(SweepReported, ReportAccountsForEveryScenario) {
  const auto specs = small_grid(UpdateOrder::kRoundRobin);
  SweepConfig config;
  config.threads = 2;
  const SweepRun run = run_sweep_reported(specs, config);
  const SweepReport& report = run.report;

  EXPECT_EQ(report.scenarios, specs.size());
  EXPECT_EQ(report.threads, 2u);
  EXPECT_EQ(report.converged, specs.size());  // this grid always converges
  ASSERT_EQ(report.workers.size(), 2u);

  // Every scenario is attributed to exactly one worker...
  std::size_t attributed = 0;
  double busy = 0.0;
  for (const SweepWorkerStats& worker : report.workers) {
    attributed += worker.scenarios;
    busy += worker.busy_seconds;
    EXPECT_GE(worker.utilization, 0.0);
    EXPECT_LE(worker.utilization, 1.0 + 1e-9);
  }
  EXPECT_EQ(attributed, specs.size());
  // ...and total busy time cannot exceed threads * wall time.
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_LE(busy, 2.0 * report.wall_seconds + 1e-6);
  EXPECT_LE(report.worker_utilization(), 1.0 + 1e-9);
  EXPECT_GT(report.scenarios_per_second, 0.0);

  // Histograms bucket each scenario exactly once.
  EXPECT_EQ(report.updates_per_scenario.count,
            static_cast<std::uint64_t>(specs.size()));
  EXPECT_EQ(report.solve_millis.count,
            static_cast<std::uint64_t>(specs.size()));
  std::size_t total_updates = 0;
  for (const SweepResult& result : run.results) {
    total_updates += result.result.updates;
  }
  EXPECT_EQ(report.total_updates, total_updates);
  EXPECT_DOUBLE_EQ(report.updates_per_scenario.sum,
                   static_cast<double>(total_updates));

  // The section-cost reuse ratio is a probability, and this grid
  // exercises the cache.
  EXPECT_GT(report.section_reuse_ratio, 0.0);
  EXPECT_LE(report.section_reuse_ratio, 1.0);

  const std::string text = report.to_text();
  EXPECT_NE(text.find("scenarios"), std::string::npos);
  EXPECT_NE(text.find("worker 0"), std::string::npos);
  EXPECT_NE(text.find("worker 1"), std::string::npos);
}

TEST(SweepReported, SerialRunAttributesEverythingToWorkerZero) {
  const auto specs = small_grid(UpdateOrder::kRoundRobin);
  SweepConfig config;
  config.threads = 1;
  const SweepRun run = run_sweep_reported(specs, config);
  ASSERT_EQ(run.report.workers.size(), 1u);
  EXPECT_EQ(run.report.workers[0].scenarios, specs.size());
}

}  // namespace
}  // namespace olev::core
