// The runtime invariant auditor (src/util/audit.h) in both build flavors.
//
// Degenerate solver inputs are the cases most likely to make a *correct*
// auditor fire spuriously -- zero total requests, all-masked sections,
// duplicate-minimum loads sitting exactly on the water level -- so each one
// runs here with the auditor armed (in -DOLEV_AUDIT=ON builds) and must
// complete with zero firings.  The plumbing tests (fail/handler/counter)
// compile in every flavor because the audit support code is always built;
// only the check sites vanish in non-audit builds.

#include "util/audit.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "util/sync.h"

#include "core/cost.h"
#include "core/game.h"
#include "core/satisfaction.h"
#include "core/water_filling.h"

namespace olev {
namespace {

namespace audit = util::audit;
using core::GameConfig;
using core::PlayerSpec;
using core::SortedLoads;
using core::WaterFillResult;

core::SectionCost make_cost(double cap_kw = 100.0) {
  return core::SectionCost(
      std::make_unique<core::NonlinearPricing>(16.0, 0.875, 100.0),
      core::OverloadCost{1.0}, olev::util::kw(cap_kw));
}

// --- auditor plumbing (both flavors) ---------------------------------------

TEST(Audit, FailThrowsAuditFailureWithContext) {
  audit::reset_firings();
  try {
    audit::fail("sum == total", "water_filling.cc", 42, "sum=1 total=2");
    FAIL() << "audit::fail returned";
  } catch (const audit::AuditFailure& failure) {
    const std::string message = failure.what();
    EXPECT_NE(message.find("sum == total"), std::string::npos);
    EXPECT_NE(message.find("water_filling.cc:42"), std::string::npos);
    EXPECT_NE(message.find("sum=1 total=2"), std::string::npos);
  }
  EXPECT_EQ(audit::firings(), 1u);
  audit::reset_firings();
}

TEST(Audit, HandlerObservesFailureButCannotResume) {
  static std::string seen;
  seen.clear();
  audit::reset_firings();
  const audit::Handler previous =
      audit::set_handler(+[](const std::string& message) { seen = message; });
  // Even a handler that returns must not resume the violated code path.
  EXPECT_THROW(audit::fail("x >= 0", "game.cc", 7, "x=-1"), audit::AuditFailure);
  EXPECT_NE(seen.find("x >= 0"), std::string::npos);
  EXPECT_EQ(audit::firings(), 1u);
  audit::set_handler(previous);
  audit::reset_firings();
}

TEST(Audit, CloseUsesAbsolutePlusRelativeBand) {
  EXPECT_TRUE(audit::close(1.0, 1.0 + 1e-10, 1e-9));
  EXPECT_FALSE(audit::close(1.0, 1.0 + 1e-6, 1e-9));
  // Relative scaling: 1e5 apart at 1e12 magnitude is well inside 1e-6.
  EXPECT_TRUE(audit::close(1e12, 1e12 + 1e5, 1e-6));
  EXPECT_TRUE(audit::close(0.0, 0.0, 0.0));
}

TEST(Audit, IsFiniteRejectsNanAndInf) {
  EXPECT_TRUE(audit::is_finite(0.0));
  EXPECT_TRUE(audit::is_finite(-1e300));
  EXPECT_FALSE(audit::is_finite(std::nan("")));
  EXPECT_FALSE(audit::is_finite(std::numeric_limits<double>::infinity()));
}

// --- degenerate solver inputs: the auditor must pass, not fire -------------

class AuditFiringGuard {
 public:
  AuditFiringGuard() { audit::reset_firings(); }
  ~AuditFiringGuard() { EXPECT_EQ(audit::firings(), 0u) << "auditor fired"; }
};

TEST(AuditDegenerate, ZeroTotalRequestAllSolvers) {
  AuditFiringGuard guard;
  const std::vector<double> b{3.0, 1.0, 2.0};
  const WaterFillResult exact = core::water_fill(b, olev::util::kw(0.0));
  EXPECT_EQ(exact.row, std::vector<double>({0.0, 0.0, 0.0}));
  EXPECT_EQ(exact.level, 1.0);  // min load; nothing allocated

  const WaterFillResult bisect = core::water_fill_bisect(b, olev::util::kw(0.0));
  EXPECT_EQ(bisect.row, std::vector<double>({0.0, 0.0, 0.0}));

  const SortedLoads sorted(b);
  EXPECT_EQ(sorted.fill(olev::util::kw(0.0)).row, std::vector<double>({0.0, 0.0, 0.0}));

  const core::SectionCost cost = make_cost();
  const core::SectionCost* costs[] = {&cost, &cost, &cost};
  const auto generalized = core::generalized_fill(costs, b, olev::util::kw(0.0));
  EXPECT_EQ(generalized.row, std::vector<double>({0.0, 0.0, 0.0}));
}

TEST(AuditDegenerate, AllMaskedSectionsZeroTotal) {
  AuditFiringGuard guard;
  // A player with no admissible section and no capacity: Game's
  // path-restricted update places it nowhere.
  std::vector<PlayerSpec> players(2);
  players[0].satisfaction = std::make_unique<core::LogSatisfaction>(40.0);
  players[0].p_max = olev::util::kw(0.0);
  players[0].allowed_sections = {false, false};
  players[1].satisfaction = std::make_unique<core::LogSatisfaction>(70.0);
  players[1].p_max = olev::util::kw(50.0);
  core::Game game(std::move(players), make_cost(60.0), 2,
                  olev::util::kw(120.0));
  const core::GameResult result = game.run();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.schedule.at(0, 0), 0.0);
  EXPECT_EQ(result.schedule.at(0, 1), 0.0);
  // A positive cap with no admissible section is a *caller* error, not an
  // invariant violation: invalid_argument, no auditor firing.
  std::vector<PlayerSpec> stranded(1);
  stranded[0].satisfaction = std::make_unique<core::LogSatisfaction>(40.0);
  stranded[0].p_max = olev::util::kw(1.0);
  stranded[0].allowed_sections = {false, false};
  EXPECT_THROW(core::Game(std::move(stranded), make_cost(60.0), 2,
                          olev::util::kw(120.0)),
               std::invalid_argument);
}

TEST(AuditDegenerate, SingleAdmissibleSectionTakesEverything) {
  AuditFiringGuard guard;
  // Player 0's path admits only section 1: its whole best response lands
  // there (Lemma IV.3 on the one-entry subvector of b), exactly 0 elsewhere.
  std::vector<PlayerSpec> players(2);
  players[0].satisfaction = std::make_unique<core::LogSatisfaction>(55.0);
  players[0].p_max = olev::util::kw(30.0);
  players[0].allowed_sections = {false, true, false};
  players[1].satisfaction = std::make_unique<core::LogSatisfaction>(70.0);
  players[1].p_max = olev::util::kw(50.0);
  GameConfig config;
  config.epsilon = 1e-9;
  core::Game game(std::move(players), make_cost(60.0), 3, olev::util::kw(120.0),
                  config);
  const core::GameResult result = game.run();
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(result.schedule.at(0, 0), 0.0);
  EXPECT_EQ(result.schedule.at(0, 2), 0.0);
  const std::vector<double> b{result.schedule.column_totals_excluding(0)[1]};
  const core::BestResponse response = core::best_response(
      core::LogSatisfaction(55.0), make_cost(60.0), b, olev::util::kw(30.0));
  EXPECT_GT(response.p_star, 0.0);
  EXPECT_NEAR(result.schedule.at(0, 1), response.p_star, 1e-6);
}

TEST(AuditDegenerate, DuplicateMinimumLoads) {
  AuditFiringGuard guard;
  // Several sections tie at the minimum: the water level rises from a
  // plateau, the exact/incremental/bisection solvers must all agree and no
  // complementarity check may trip on the equal-load boundary.
  const std::vector<double> b{2.0, 2.0, 2.0, 5.0, 2.0};
  for (double total : {0.0, 1e-12, 0.5, 9.0, 12.0, 1000.0}) {
    const WaterFillResult exact = core::water_fill(b, olev::util::kw(total));
    double sum = 0.0;
    for (double v : exact.row) sum += v;
    EXPECT_NEAR(sum, total, 1e-9 * std::max(1.0, total));

    const SortedLoads sorted(b);
    const WaterFillResult incremental = sorted.fill(olev::util::kw(total));
    EXPECT_EQ(exact.row, incremental.row);
    EXPECT_EQ(exact.level, incremental.level);

    const WaterFillResult bisect = core::water_fill_bisect(b, olev::util::kw(total));
    EXPECT_NEAR(bisect.level, exact.level, 1e-8 * std::max(1.0, exact.level));
  }
}

TEST(AuditDegenerate, AllLoadsIdentical) {
  AuditFiringGuard guard;
  const std::vector<double> b(8, 4.0);
  const WaterFillResult result = core::water_fill(b, olev::util::kw(16.0));
  for (double v : result.row) EXPECT_DOUBLE_EQ(v, 2.0);
  EXPECT_EQ(result.active_sections, 8);
}

TEST(AuditDegenerate, GameWithZeroCapacityAndMaskedPlayers) {
  AuditFiringGuard guard;
  // Degenerate fleet: one player that cannot draw at all, one restricted to
  // a single section, one unrestricted.  The game must converge with the
  // auditor silent (zero rows, masked-out columns, tied loads throughout).
  std::vector<PlayerSpec> players(3);
  players[0].satisfaction = std::make_unique<core::LogSatisfaction>(40.0);
  players[0].p_max = olev::util::kw(0.0);
  players[1].satisfaction = std::make_unique<core::LogSatisfaction>(55.0);
  players[1].p_max = olev::util::kw(30.0);
  players[1].allowed_sections = {false, true, false, false};
  players[2].satisfaction = std::make_unique<core::LogSatisfaction>(70.0);
  players[2].p_max = olev::util::kw(50.0);

  GameConfig config;
  config.epsilon = 1e-6;
  core::Game game(std::move(players), make_cost(60.0), 4, olev::util::kw(120.0), config);
  const core::GameResult result = game.run();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.requests[0], 0.0);
  for (std::size_t c = 0; c < 4; ++c) {
    if (c != 1) {
      EXPECT_EQ(result.schedule.at(1, c), 0.0) << "section " << c;
    }
  }
  for (double payment : result.payments) EXPECT_GE(payment, 0.0);
}

// --- the annotated sync wrappers (util/sync.h), both flavors ---------------

TEST(SyncWrappers, MutexLockAndCondVarHandshake) {
  // Plain std::mutex semantics through the wrappers: a producer/consumer
  // handshake must round-trip in every build flavor.
  olev::Mutex mu("sync.test.handshake");
  olev::CondVar cv;
  int stage = 0;  // guarded by mu
  std::thread consumer([&] {
    olev::MutexLock lock(mu);
    cv.wait(mu, [&] {
      mu.AssertHeld();
      return stage == 1;
    });
    stage = 2;
    cv.notify_all();
  });
  {
    olev::MutexLock lock(mu);
    stage = 1;
  }
  cv.notify_all();
  {
    olev::MutexLock lock(mu);
    cv.wait(mu, [&] {
      mu.AssertHeld();
      return stage == 2;
    });
  }
  consumer.join();
  EXPECT_EQ(stage, 2);
}

TEST(SyncWrappers, TryLockReportsContention) {
  olev::Mutex mu("sync.test.trylock");
  ASSERT_TRUE(mu.try_lock());
  std::atomic<bool> contended{false};
  std::thread prober([&] { contended.store(!mu.try_lock()); });
  prober.join();
  EXPECT_TRUE(contended.load());
  mu.unlock();
}

// --- armed-build behavior: violations actually fire ------------------------

#if OLEV_AUDIT_ENABLED

TEST(AuditArmed, CheckMacroFiresOnViolation) {
  audit::reset_firings();
  EXPECT_THROW(OLEV_AUDIT_CHECK(1 + 1 == 3, std::string("arithmetic")),
               audit::AuditFailure);
  EXPECT_EQ(audit::firings(), 1u);
  audit::reset_firings();
  OLEV_AUDIT_CHECK(1 + 1 == 2, std::string("fine"));  // silent
  EXPECT_EQ(audit::firings(), 0u);
}

TEST(AuditArmed, NanRequestTripsTheEntryGuard) {
  audit::reset_firings();
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW((void)core::water_fill(b, olev::util::kw(std::nan(""))), audit::AuditFailure);
  EXPECT_GE(audit::firings(), 1u);
  audit::reset_firings();
}

TEST(AuditArmed, NanLoadTripsTheEntryGuard) {
  audit::reset_firings();
  const std::vector<double> b{1.0, std::nan("")};
  EXPECT_THROW((void)core::water_fill(b, olev::util::kw(3.0)), audit::AuditFailure);
  audit::reset_firings();
}

// --- lock-order auditor: inverted acquisition orders are latent deadlocks --

TEST(LockOrderAudit, InvertedAcquisitionOrderFiresExactlyOnce) {
  audit::reset_firings();
  static std::string seen;
  seen.clear();
  const audit::Handler previous =
      audit::set_handler(+[](const std::string& message) { seen = message; });

  olev::Mutex a("lockorder.test.inverted.A");
  olev::Mutex b("lockorder.test.inverted.B");

  // Thread 1 establishes the order A -> B and exits cleanly.
  std::thread t1([&] {
    olev::MutexLock la(a);
    olev::MutexLock lb(b);
  });
  t1.join();

  // Thread 2 inverts it.  Nothing ever blocks -- t1 is long gone -- but the
  // ORDER B -> A closes a cycle in the acquisition graph, which is exactly
  // the interleaving-independent deadlock signal lockdep exists for.
  std::atomic<bool> fired{false};
  std::thread t2([&] {
    try {
      olev::MutexLock lb(b);
      olev::MutexLock la(a);  // cycle detected here, before acquiring
    } catch (const audit::AuditFailure&) {
      fired.store(true);
    }
  });
  t2.join();
  EXPECT_TRUE(fired.load());
  EXPECT_EQ(audit::firings(), 1u);
  // Both offending chains, by lock name, land in the report.
  EXPECT_NE(seen.find("lockorder.test.inverted.A"), std::string::npos) << seen;
  EXPECT_NE(seen.find("lockorder.test.inverted.B"), std::string::npos) << seen;
  EXPECT_NE(seen.find("lock-order inversion"), std::string::npos) << seen;

  // The same inverted pair again: reported at most once per process, and
  // the (non-deadlocking) acquisition itself now proceeds normally.
  std::thread t3([&] {
    olev::MutexLock lb(b);
    olev::MutexLock la(a);
  });
  t3.join();
  EXPECT_EQ(audit::firings(), 1u);

  audit::set_handler(previous);
  audit::reset_firings();
}

TEST(LockOrderAudit, ConsistentOrderStaysSilent) {
  audit::reset_firings();
  olev::Mutex outer("lockorder.test.clean.outer");
  olev::Mutex inner("lockorder.test.clean.inner");
  // Many threads, always outer -> inner: an acyclic order never fires.
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 100; ++j) {
        olev::MutexLock lo(outer);
        olev::MutexLock li(inner);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(audit::firings(), 0u);
}

TEST(LockOrderAudit, TransitiveCycleIsDetected) {
  audit::reset_firings();
  static std::string seen;
  seen.clear();
  const audit::Handler previous =
      audit::set_handler(+[](const std::string& message) { seen = message; });

  olev::Mutex a("lockorder.test.chain.A");
  olev::Mutex b("lockorder.test.chain.B");
  olev::Mutex c("lockorder.test.chain.C");
  std::thread t1([&] {
    olev::MutexLock la(a);
    olev::MutexLock lb(b);  // A -> B
  });
  t1.join();
  std::thread t2([&] {
    olev::MutexLock lb(b);
    olev::MutexLock lc(c);  // B -> C
  });
  t2.join();
  std::atomic<bool> fired{false};
  std::thread t3([&] {
    try {
      olev::MutexLock lc(c);
      olev::MutexLock la(a);  // C -> A closes A -> B -> C -> A
    } catch (const audit::AuditFailure&) {
      fired.store(true);
    }
  });
  t3.join();
  EXPECT_TRUE(fired.load());
  EXPECT_EQ(audit::firings(), 1u);
  audit::set_handler(previous);
  audit::reset_firings();
}

TEST(LockOrderAudit, AssertHeldFiresWhenUnheld) {
  audit::reset_firings();
  olev::Mutex mu("lockorder.test.assert");
  EXPECT_THROW(mu.AssertHeld(), audit::AuditFailure);
  EXPECT_EQ(audit::firings(), 1u);
  {
    olev::MutexLock lock(mu);
    mu.AssertHeld();  // silent while held
  }
  EXPECT_EQ(audit::firings(), 1u);
  audit::reset_firings();
}

#else

TEST(AuditDisarmed, CheckSitesCompileToNothing) {
  audit::reset_firings();
  OLEV_AUDIT_CHECK(false, "never evaluated");
  OLEV_AUDIT_FINITE(std::nan(""), "never evaluated");
  EXPECT_EQ(audit::firings(), 0u);
}

TEST(AuditDisarmed, LockOrderTrackingCompilesToNothing) {
  audit::reset_firings();
  olev::Mutex a("lockorder.disarmed.A");
  olev::Mutex b("lockorder.disarmed.B");
  // Opposite orders on two (sequential, never-deadlocking) threads: without
  // OLEV_AUDIT the order graph does not exist and nothing fires.
  std::thread t1([&] {
    olev::MutexLock la(a);
    olev::MutexLock lb(b);
  });
  t1.join();
  std::thread t2([&] {
    olev::MutexLock lb(b);
    olev::MutexLock la(a);
  });
  t2.join();
  a.AssertHeld();  // dynamic assert is compiled out too
  EXPECT_EQ(audit::firings(), 0u);
}

#endif

}  // namespace
}  // namespace olev
