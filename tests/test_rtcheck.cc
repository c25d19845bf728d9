// Runtime leg of the real-time wall (util/hot.h, util/audit.h).
//
// The static wall -- tools/olev_rtcheck.py over the relocation call graph --
// proves the absence of allocation/lock/throw/syscall paths from the hot
// roots.  These tests exercise the dynamic backstop that catches whatever a
// checker bug or an unanalyzed build flag would let through: the OLEV_AUDIT
// new/delete interposer that fires audit::fail on any allocation inside an
// armed OLEV_HOT_REGION.
//
// The positive control is hot_alloc_probe below: a deliberately allocating
// OLEV_HOT function, compiled only into this test binary (the analyzed src/
// tree stays clean) and gated behind a test-set flag so nothing can call it
// by accident.  In audit builds the interposer must reject it; the clean
// engines (Game, MeanFieldGame, PricingEngine) must run their armed regions
// without a single violation.
//
// The HotRegion/HotBypass support type tests run in every build flavor;
// interposer-dependent assertions skip unless OLEV_RT_INTERPOSER_ENABLED
// (audit build, not under ASan -- see util/audit.h).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/cost.h"
#include "core/game.h"
#include "core/mean_field.h"
#include "core/pricing_engine.h"
#include "core/satisfaction.h"
#include "obs/flight.h"
#include "util/audit.h"
#include "util/hot.h"

namespace audit = olev::util::audit;

namespace {

// --- the deliberately allocating hot function (positive control) -----------

bool g_probe_armed = false;  // the test flag: nothing trips this by accident

OLEV_HOT __attribute__((noinline)) double hot_alloc_probe(std::size_t n) {
  if (!g_probe_armed) return 0.0;
  // NOT registered as OLEV_HOT_ROOT: this TU is never part of the analyzed
  // tree, and the runtime interposer -- not the static wall -- is under test.
  std::vector<double> samples(n, 1.0);
  return samples.back();
}

struct ProbeArm {
  ProbeArm() { g_probe_armed = true; }
  ~ProbeArm() { g_probe_armed = false; }
};

// --- fixtures mirroring test_game.cc ---------------------------------------

olev::core::SectionCost make_cost(double cap = 40.0) {
  return olev::core::SectionCost(
      std::make_unique<olev::core::NonlinearPricing>(5.0, 0.875, cap),
      olev::core::OverloadCost{1.0}, olev::util::kw(cap));
}

std::vector<olev::core::PlayerSpec> make_players(
    const std::vector<double>& weights, double p_max = 200.0) {
  std::vector<olev::core::PlayerSpec> players;
  for (double w : weights) {
    olev::core::PlayerSpec player;
    player.satisfaction = std::make_unique<olev::core::LogSatisfaction>(w);
    player.p_max = olev::util::kw(p_max);
    players.push_back(std::move(player));
  }
  return players;
}

// --- HotRegion bookkeeping (all build flavors) ------------------------------

TEST(HotRegion, TracksDepthAndOutermostName) {
  EXPECT_EQ(audit::hot_region_depth(), 0u);
  EXPECT_EQ(audit::hot_region_name(), nullptr);
  {
    audit::HotRegion outer{"rt.test.outer"};
    EXPECT_EQ(audit::hot_region_depth(), 1u);
    EXPECT_STREQ(audit::hot_region_name(), "rt.test.outer");
    {
      audit::HotRegion inner{"rt.test.inner"};
      EXPECT_EQ(audit::hot_region_depth(), 2u);
      // the outermost region names the scope
      EXPECT_STREQ(audit::hot_region_name(), "rt.test.outer");
    }
    EXPECT_EQ(audit::hot_region_depth(), 1u);
  }
  EXPECT_EQ(audit::hot_region_depth(), 0u);
  EXPECT_EQ(audit::hot_region_name(), nullptr);
}

TEST(HotRegion, ViolationCounterResets) {
  audit::reset_hot_alloc_violations();
  EXPECT_EQ(audit::hot_alloc_violations(), 0u);
}

// --- interposer behavior (audit builds without ASan only) -------------------

class Interposer : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!OLEV_RT_INTERPOSER_ENABLED) {
      GTEST_SKIP() << "new/delete interposer compiled out "
                      "(non-audit build or ASan run)";
    }
    audit::reset_hot_alloc_violations();
    audit::reset_firings();
  }
};

TEST_F(Interposer, HotRegionAllocationFires) {
  const ProbeArm armed;
  const std::size_t before = audit::hot_alloc_violations();
  EXPECT_THROW(
      {
        audit::HotRegion region{"rt.test.alloc"};
        hot_alloc_probe(64);
      },
      audit::AuditFailure);
  EXPECT_GT(audit::hot_alloc_violations(), before);
}

TEST_F(Interposer, OutsideRegionAllocationIsFree) {
  const ProbeArm armed;
  const std::size_t before = audit::hot_alloc_violations();
  EXPECT_NO_THROW(hot_alloc_probe(64));
  EXPECT_EQ(audit::hot_alloc_violations(), before);
}

TEST_F(Interposer, DeleteInsideRegionIsDeferredToRegionExit) {
  // operator delete is noexcept, so the violation cannot surface at the
  // free site; the outermost HotRegion destructor reports it instead.  The
  // volatile pointer defeats GCC's new/delete pair elision (N3664), which
  // would otherwise remove both calls and the event with them.
  double* volatile payload = new double(3.0);
  bool reported = false;
  bool reached_after_delete = false;
  try {
    audit::HotRegion region{"rt.test.deferred-free"};
    delete payload;
    reached_after_delete = true;  // the free itself must not throw
  } catch (const audit::AuditFailure&) {
    reported = true;
  }
  EXPECT_TRUE(reached_after_delete);
  EXPECT_TRUE(reported);
  EXPECT_GT(audit::hot_alloc_violations(), 0u);
}

TEST_F(Interposer, HotBypassSuppressesTheInterposer) {
  const ProbeArm armed;
  const std::size_t before = audit::hot_alloc_violations();
  EXPECT_NO_THROW({
    audit::HotRegion region{"rt.test.bypass"};
    audit::HotBypass bypass;
    hot_alloc_probe(64);
  });
  EXPECT_EQ(audit::hot_alloc_violations(), before);
}

// --- the production hot paths stay clean under armed regions ----------------
//
// Game::update_player (one cost or one per section), MeanFieldGame's
// kernels and PricingEngine::apply all open their own OLEV_HOT_REGION in
// audit builds; running them to convergence with the interposer live proves
// the arena refactor holds at runtime, not just in the relocation graph.  In
// non-audit builds these are plain smoke tests.

TEST(HotPathsClean, ExactGameRunsWithoutHotAllocations) {
  audit::reset_hot_alloc_violations();
  olev::core::Game game(make_players({10.0, 20.0, 15.0, 8.0}), make_cost(), 4,
                        olev::util::kw(50.0));
  const olev::core::GameResult result = game.run();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(audit::hot_alloc_violations(), 0u);
}

TEST(HotPathsClean, PerSectionGameRunsWithoutHotAllocations) {
  // A heterogeneous corridor takes the price-space best response and the
  // allocation-free generalized fill under the same armed update region.
  audit::reset_hot_alloc_violations();
  std::vector<olev::core::SectionCost> costs;
  for (double cap : {20.0, 45.0, 70.0}) costs.push_back(make_cost(cap));
  olev::core::Game game(make_players({10.0, 20.0, 15.0, 8.0}),
                        std::move(costs), {25.0, 55.0, 85.0});
  const olev::core::GameResult result = game.run();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(audit::hot_alloc_violations(), 0u);
}

TEST(HotPathsClean, MeanFieldGameRunsWithoutHotAllocations) {
  audit::reset_hot_alloc_violations();
  olev::core::MeanFieldConfig config;
  config.background_load_kw = {4.0, 1.0, 2.5, 0.5};
  olev::core::MeanFieldGame game(make_players({10.0, 20.0, 15.0, 8.0}),
                                 make_cost(), 4, olev::util::kw(50.0),
                                 config);
  const olev::core::MeanFieldResult result = game.run();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(audit::hot_alloc_violations(), 0u);
}

TEST(HotPathsClean, FlightRecordIsAllocationFreeInsideHotRegions) {
  // The flight recorder's record path is itself a registered hot root; hammer
  // it through deep ring wraparound with an armed region to prove the seqlock
  // write path never touches the allocator (or a lock, via AuditFailure).
  audit::reset_hot_alloc_violations();
  olev::obs::flight::reset();
  {
    audit::HotRegion region{"rt.test.flight-record"};
    for (std::uint64_t i = 0; i < 4 * olev::obs::flight::kSlotsPerLane; ++i) {
      olev::obs::flight::record(olev::obs::flight::Event::kAdmit, i, i);
    }
  }
  EXPECT_EQ(audit::hot_alloc_violations(), 0u);
  EXPECT_GE(olev::obs::flight::total_recorded(),
            4 * olev::obs::flight::kSlotsPerLane);
}

TEST(HotPathsClean, EngineConvergenceRecordsFlightEventWithoutAllocating) {
  // PricingEngine::apply records kRoundConverge from INSIDE its own armed
  // hot region when the fixed point is reached -- the event must land in the
  // recorder and the interposer must stay silent.
  audit::reset_hot_alloc_violations();
  olev::obs::flight::reset();
  olev::core::EngineConfig config;
  config.players = 3;
  config.sections = 4;
  olev::core::PricingEngine engine(make_cost(), config);
  for (int round = 0; round < 4 && !engine.converged(); ++round) {
    for (std::size_t player = 0; player < config.players; ++player) {
      engine.apply(player, 12.0);
    }
  }
  EXPECT_TRUE(engine.converged());
  EXPECT_EQ(audit::hot_alloc_violations(), 0u);
  bool saw_converge = false;
  for (const olev::obs::flight::Record& rec : olev::obs::flight::snapshot()) {
    if (rec.event == olev::obs::flight::Event::kRoundConverge) {
      saw_converge = true;
      EXPECT_EQ(rec.a, engine.updates());
    }
  }
  EXPECT_TRUE(saw_converge);
}

TEST(HotPathsClean, PricingEngineServesWithoutHotAllocations) {
  audit::reset_hot_alloc_violations();
  olev::core::EngineConfig config;
  config.players = 4;
  config.sections = 6;
  olev::core::PricingEngine engine(make_cost(), config);
  for (int round = 0; round < 8; ++round) {
    for (std::size_t player = 0; player < config.players; ++player) {
      const olev::core::PricingEngine::Applied& applied =
          engine.apply(player, 10.0 + static_cast<double>(player));
      EXPECT_EQ(applied.row.size(), config.sections);
    }
  }
  EXPECT_EQ(audit::hot_alloc_violations(), 0u);
}

}  // namespace
