#include "core/best_response.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/payment.h"
#include "util/rng.h"

namespace olev::core {
namespace {

SectionCost make_cost(double beta = 8.0, double cap = 50.0) {
  return SectionCost(std::make_unique<NonlinearPricing>(beta, 0.875, cap),
                     OverloadCost{1.5}, olev::util::kw(cap));
}

/// Lemma IV.3 by plain bisection on F', run far past the solver's
/// tolerance.
template <class FPrime>
double bisect_p_star(FPrime f_prime, double p_max) {
  if (p_max == 0.0 || f_prime(0.0) <= 0.0) return 0.0;
  if (f_prime(p_max) >= 0.0) return p_max;
  double lo = 0.0;
  double hi = p_max;
  for (int it = 0; it < 200 && hi - lo > 1e-13 * std::max(1.0, hi); ++it) {
    const double mid = 0.5 * (lo + hi);
    (f_prime(mid) > 0.0 ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

/// The reference the segment solver is checked against: bisection on the
/// public F'.
double reference_p_star(const Satisfaction& u, const SectionCost& z,
                        const std::vector<double>& b, double p_max) {
  return bisect_p_star(
      [&](double p) { return utility_derivative(u, z, b, olev::util::kw(p)); },
      p_max);
}

/// F' evaluations an interior solve may take over K breakpoints: the
/// segment search, the hinge split and one crossing.  Bisection to 1e-9
/// takes 33-40.
int evaluation_bound(std::size_t breakpoints) {
  const double log2_k = std::ceil(std::log2(static_cast<double>(breakpoints)));
  return static_cast<int>(log2_k) + 2;
}

/// p* agrees with the reference, and an interior solve stays within the
/// evaluation bound.
void expect_matches_reference(const BestResponse& r, const Satisfaction& u,
                              const SectionCost& z,
                              const std::vector<double>& b, double p_max) {
  const double expected = reference_p_star(u, z, b, p_max);
  EXPECT_NEAR(r.p_star, expected, 1e-9 * std::max(1.0, expected));
  if (r.kind == BestResponse::Case::kInterior) {
    EXPECT_LE(r.iterations, evaluation_bound(b.size()));
  } else {
    EXPECT_EQ(r.iterations, 0);
  }
}

TEST(BestResponse, RequiresStrictConvexity) {
  SectionCost linear(std::make_unique<LinearPricing>(1.0), OverloadCost{0.0},
                     olev::util::kw(50.0));
  LogSatisfaction u;
  const std::vector<double> b{0.0};
  EXPECT_THROW((void)best_response(u, linear, b, olev::util::kw(10.0)), std::logic_error);
}

TEST(BestResponse, RejectsNegativeCap) {
  LogSatisfaction u;
  const SectionCost z = make_cost();
  const std::vector<double> b{0.0};
  EXPECT_THROW((void)best_response(u, z, b, olev::util::kw(-1.0)), std::invalid_argument);
}

TEST(BestResponse, RejectsEmptyCorridor) {
  LogSatisfaction u;
  const SectionCost z = make_cost();
  const std::vector<double> b;
  EXPECT_THROW((void)best_response(u, z, b, olev::util::kw(10.0)),
               std::invalid_argument);
  EXPECT_THROW((void)best_response(u, z, b, olev::util::kw(0.0)),
               std::invalid_argument);
  const PriceCurve no_sections;
  std::vector<double> row;
  EXPECT_THROW(
      (void)best_response_into(u, no_sections, olev::util::kw(10.0), row),
      std::invalid_argument);
}

TEST(BestResponse, CornerAtZeroWhenPriceTooHigh) {
  // Marginal price at zero above U'(0) = 1: request nothing (Eq. 22 case 1).
  const SectionCost z = make_cost(/*beta=*/500.0, /*cap=*/10.0);
  LogSatisfaction u;
  const std::vector<double> b{20.0, 20.0};
  const BestResponse r = best_response(u, z, b, olev::util::kw(30.0));
  EXPECT_EQ(r.kind, BestResponse::Case::kCornerZero);
  EXPECT_DOUBLE_EQ(r.p_star, 0.0);
  EXPECT_DOUBLE_EQ(r.payment, 0.0);
  EXPECT_DOUBLE_EQ(r.utility, 0.0);
}

TEST(BestResponse, CornerAtCapWhenDemandHuge) {
  // Very strong satisfaction: the physical cap P_OLEV binds (Eq. 22 case 2).
  const SectionCost z = make_cost(/*beta=*/0.001, /*cap=*/100.0);
  LogSatisfaction u(1000.0);
  const std::vector<double> b{0.0, 0.0};
  const BestResponse r = best_response(u, z, b, olev::util::kw(5.0));
  EXPECT_EQ(r.kind, BestResponse::Case::kCornerCap);
  EXPECT_DOUBLE_EQ(r.p_star, 5.0);
}

TEST(BestResponse, InteriorSatisfiesFirstOrderCondition) {
  const SectionCost z = make_cost();
  LogSatisfaction u(30.0);
  const std::vector<double> b{2.0, 6.0, 4.0};
  const BestResponse r = best_response(u, z, b, olev::util::kw(200.0));
  ASSERT_EQ(r.kind, BestResponse::Case::kInterior);
  // U'(p*) == Psi'(p*) == Z'(lambda*).
  EXPECT_NEAR(u.derivative(r.p_star),
              payment_derivative(z, b, olev::util::kw(r.p_star)), 1e-6);
}

TEST(BestResponse, InteriorBeatsNeighbors) {
  const SectionCost z = make_cost();
  LogSatisfaction u(30.0);
  const std::vector<double> b{2.0, 6.0, 4.0};
  const BestResponse r = best_response(u, z, b, olev::util::kw(200.0));
  auto f = [&](double p) { return u.value(p) - payment_of_total(z, b, olev::util::kw(p)); };
  EXPECT_NEAR(r.utility, f(r.p_star), 1e-9);
  for (double delta : {-5.0, -1.0, -0.1, 0.1, 1.0, 5.0}) {
    const double p = r.p_star + delta;
    if (p < 0.0 || p > 200.0) continue;
    EXPECT_LE(f(p), r.utility + 1e-9) << "delta=" << delta;
  }
}

TEST(BestResponse, GlobalMaximumAgainstGridScan) {
  const SectionCost z = make_cost();
  LogSatisfaction u(15.0);
  const std::vector<double> b{1.0, 3.0};
  const double p_max = 60.0;
  const BestResponse r = best_response(u, z, b, olev::util::kw(p_max));
  auto f = [&](double p) { return u.value(p) - payment_of_total(z, b, olev::util::kw(p)); };
  for (int i = 0; i <= 600; ++i) {
    const double p = p_max * i / 600.0;
    EXPECT_LE(f(p), r.utility + 1e-7) << "p=" << p;
  }
}

TEST(BestResponse, AllocationIsWaterFilled) {
  const SectionCost z = make_cost();
  LogSatisfaction u(30.0);
  const std::vector<double> b{2.0, 6.0, 4.0};
  const BestResponse r = best_response(u, z, b, olev::util::kw(200.0));
  const auto expected = water_fill(b, olev::util::kw(r.p_star));
  for (std::size_t c = 0; c < b.size(); ++c) {
    EXPECT_NEAR(r.allocation.row[c], expected.row[c], 1e-9);
  }
}

TEST(BestResponse, ZeroCapIsCornerZero) {
  const SectionCost z = make_cost();
  LogSatisfaction u(30.0);
  const std::vector<double> b{1.0};
  const BestResponse r = best_response(u, z, b, olev::util::kw(0.0));
  EXPECT_DOUBLE_EQ(r.p_star, 0.0);
}

TEST(BestResponse, ShrinksWhenOthersLoadGrows) {
  // The disincentive property the pricing policy is built for: more
  // congestion -> smaller optimal request.
  const SectionCost z = make_cost();
  LogSatisfaction u(30.0);
  const std::vector<double> light{1.0, 1.0};
  const std::vector<double> heavy{25.0, 25.0};
  const double p_light = best_response(u, z, light, olev::util::kw(500.0)).p_star;
  const double p_heavy = best_response(u, z, heavy, olev::util::kw(500.0)).p_star;
  EXPECT_GT(p_light, p_heavy);
}

TEST(BestResponse, MonotoneInSatisfactionWeight) {
  const SectionCost z = make_cost();
  const std::vector<double> b{3.0, 3.0};
  double prev = 0.0;
  for (double w : {1.0, 5.0, 20.0, 80.0}) {
    LogSatisfaction u(w);
    const double p = best_response(u, z, b, olev::util::kw(1000.0)).p_star;
    EXPECT_GE(p, prev);
    prev = p;
  }
}

TEST(BestResponse, RandomizedOptimality) {
  // Every instance is solved for the Log, Sqrt and Quadratic families (the
  // quadratic's satiation point falls below p_max in some of them); each
  // p* must beat a grid scan and match the reference bisection.
  util::Rng rng(2024);
  for (int trial = 0; trial < 100; ++trial) {
    const auto sections = static_cast<std::size_t>(rng.uniform_int(1, 12));
    std::vector<double> b(sections);
    for (double& v : b) v = rng.uniform(0.0, 30.0);
    const double cap = rng.uniform(10.0, 80.0);
    const SectionCost z = make_cost(rng.uniform(1.0, 20.0), cap);
    const double weight = rng.uniform(1.0, 50.0);
    const double p_max = rng.uniform(1.0, 150.0);
    const double satiation = rng.uniform(5.0, 200.0);
    const LogSatisfaction log_u(weight);
    const SqrtSatisfaction sqrt_u(weight);
    const QuadraticSatisfaction quadratic_u(weight, satiation);
    for (const Satisfaction* u :
         {static_cast<const Satisfaction*>(&log_u),
          static_cast<const Satisfaction*>(&sqrt_u),
          static_cast<const Satisfaction*>(&quadratic_u)}) {
      const BestResponse r = best_response(*u, z, b, olev::util::kw(p_max));
      ASSERT_GE(r.p_star, 0.0);
      ASSERT_LE(r.p_star, p_max + 1e-9);
      auto f = [&](double p) {
        return u->value(p) - payment_of_total(z, b, olev::util::kw(p));
      };
      for (int i = 0; i <= 50; ++i) {
        const double p = p_max * i / 50.0;
        EXPECT_LE(f(p), r.utility + 1e-6)
            << "trial " << trial << " alternative p=" << p;
      }
      expect_matches_reference(r, *u, z, b, p_max);
    }
  }
}

// --- the segment solver's edge cases ----------------------------------------

TEST(SegmentSolver, AllLoadsEqualMakesEveryBreakpointZero) {
  const SectionCost z = make_cost();
  const LogSatisfaction u(30.0);
  const std::vector<double> b(7, 4.0);
  const BestResponse r = best_response(u, z, b, olev::util::kw(200.0));
  ASSERT_EQ(r.kind, BestResponse::Case::kInterior);
  EXPECT_EQ(r.allocation.active_sections, 7);
  expect_matches_reference(r, u, z, b, 200.0);
}

TEST(SegmentSolver, SingleSection) {
  const SectionCost z = make_cost();
  for (const double load : {0.0, 7.5, 40.0}) {
    const SqrtSatisfaction u(25.0);
    const std::vector<double> b{load};
    const BestResponse r = best_response(u, z, b, olev::util::kw(150.0));
    ASSERT_EQ(r.kind, BestResponse::Case::kInterior) << "b=" << load;
    expect_matches_reference(r, u, z, b, 150.0);
  }
}

TEST(SegmentSolver, RootExactlyAtABreakpoint) {
  // Choose the weight so that F'(q_1) = 0 at q_1 = s_1 - s_0 = 6, where the
  // level reaches the second load: U'(6) = w / 7 = Z'(8).
  const SectionCost z = make_cost();
  const std::vector<double> b{2.0, 8.0, 20.0};
  const double q1 = 6.0;
  const LogSatisfaction u(z.derivative(8.0) * (1.0 + q1));
  const BestResponse r = best_response(u, z, b, olev::util::kw(100.0));
  ASSERT_EQ(r.kind, BestResponse::Case::kInterior);
  EXPECT_NEAR(r.p_star, q1, 1e-9 * q1);
  expect_matches_reference(r, u, z, b, 100.0);
}

TEST(SegmentSolver, CapInsideTheFirstSegment) {
  // q_1 = 60 lies beyond p_max = 30: the root is on segment 1, bracketed by
  // 0 and p_max, and no breakpoint needs testing.
  const SectionCost z = make_cost();
  const std::vector<double> b{10.0, 70.0};
  const LogSatisfaction u(6.0);
  const BestResponse r = best_response(u, z, b, olev::util::kw(30.0));
  ASSERT_EQ(r.kind, BestResponse::Case::kInterior);
  EXPECT_EQ(r.allocation.active_sections, 1);
  expect_matches_reference(r, u, z, b, 30.0);
}

TEST(SegmentSolver, OverloadHingeActive) {
  // Safety cap 10 kW under loads of 12-15 kW: the water level sits above the
  // cap, so Z' carries the overload term A' on the root's segment.
  const SectionCost z = make_cost(/*beta=*/2.0, /*cap=*/10.0);
  const std::vector<double> b{12.0, 15.0, 13.0};
  const LogSatisfaction u(40.0);
  const BestResponse r = best_response(u, z, b, olev::util::kw(100.0));
  ASSERT_EQ(r.kind, BestResponse::Case::kInterior);
  EXPECT_GT(r.allocation.level, z.cap_kw());
  expect_matches_reference(r, u, z, b, 100.0);
}

TEST(SegmentSolver, QuadraticSatiationBelowCap) {
  // U' < 0 past the satiation point 30 < p_max = 60, where 1 - Z'/U' loses
  // F''s sign; the solver must still land on the true root, not on p_max.
  const SectionCost z = make_cost();
  const std::vector<double> b{1.0, 3.0, 5.0};
  const QuadraticSatisfaction u(2.0, 30.0);
  const BestResponse r = best_response(u, z, b, olev::util::kw(60.0));
  ASSERT_EQ(r.kind, BestResponse::Case::kInterior);
  EXPECT_NEAR(r.p_star, 24.72, 0.01);
  EXPECT_NEAR(utility_derivative(u, z, b, olev::util::kw(r.p_star)), 0.0,
              1e-8);
  expect_matches_reference(r, u, z, b, 60.0);
}

// --- the same solver on a per-section price curve ---------------------------

/// Psi'(p) on a per-section corridor without PriceCurve: the price rho at
/// which D(rho) = sum_c [(Z_c')^{-1}(rho) - b_c]^+ reaches p, bisected on
/// SectionCost::derivative_inverse.
double reference_price(const std::vector<const SectionCost*>& costs,
                       const std::vector<double>& b, double p) {
  auto volume = [&](double rho) {
    double sum = 0.0;
    for (std::size_t c = 0; c < b.size(); ++c) {
      sum += std::max(0.0, costs[c]->derivative_inverse(rho) - b[c]);
    }
    return sum;
  };
  double lo = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < b.size(); ++c) {
    lo = std::min(lo, costs[c]->derivative(b[c]));
  }
  if (p == 0.0) return lo;
  double hi = lo + 1.0;
  while (volume(hi) < p) hi = lo + 2.0 * (hi - lo);
  for (int it = 0; it < 200 && hi - lo > 1e-15 * hi; ++it) {
    const double mid = 0.5 * (lo + hi);
    (volume(mid) < p ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

/// Lemma IV.3 on a per-section corridor: bisection on
/// F'(p) = U'(p) - reference_price(p).
double reference_per_section_p_star(const Satisfaction& u,
                                    const std::vector<const SectionCost*>& costs,
                                    const std::vector<double>& b,
                                    double p_max) {
  return bisect_p_star(
      [&](double p) { return u.derivative(p) - reference_price(costs, b, p); },
      p_max);
}

/// A random per-section corridor: C in [1, 60], caps 10-90 kW with
/// p_ref = cap, overload weights 0.5-3, and b_c up to 1.5x its own cap.
struct Corridor {
  std::vector<SectionCost> costs;
  std::vector<double> b;

  std::vector<const SectionCost*> pointers() const {
    std::vector<const SectionCost*> out;
    for (const SectionCost& cost : costs) out.push_back(&cost);
    return out;
  }
};

Corridor random_corridor(util::Rng& rng) {
  Corridor corridor;
  const auto sections = static_cast<std::size_t>(rng.uniform_int(1, 60));
  for (std::size_t c = 0; c < sections; ++c) {
    const double cap = rng.uniform(10.0, 90.0);
    corridor.costs.emplace_back(
        std::make_unique<NonlinearPricing>(rng.uniform(1.0, 20.0), 0.875, cap),
        OverloadCost{rng.uniform(0.5, 3.0)}, olev::util::kw(cap));
    corridor.b.push_back(rng.uniform(0.0, 1.5 * cap));
  }
  return corridor;
}

TEST(PerSectionSolver, RandomCorridorsMatchReferenceAndKkt) {
  util::Rng rng(0x5ec7);
  for (int trial = 0; trial < 60; ++trial) {
    const Corridor corridor = random_corridor(rng);
    const std::vector<const SectionCost*> costs = corridor.pointers();
    const std::vector<double>& b = corridor.b;
    const PriceCurve curve(costs, b);
    const double weight = rng.uniform(1.0, 50.0);
    const double p_max = rng.uniform(1.0, 150.0);
    const LogSatisfaction log_u(weight);
    const SqrtSatisfaction sqrt_u(weight);
    const QuadraticSatisfaction quadratic_u(weight, rng.uniform(5.0, 200.0));
    for (const Satisfaction* u :
         {static_cast<const Satisfaction*>(&log_u),
          static_cast<const Satisfaction*>(&sqrt_u),
          static_cast<const Satisfaction*>(&quadratic_u)}) {
      std::vector<double> row(b.size());
      const BestResponseScalars r =
          best_response_into(*u, curve, olev::util::kw(p_max), row);
      const double expected = reference_per_section_p_star(*u, costs, b, p_max);
      EXPECT_NEAR(r.p_star, expected, 1e-9 * std::max(1.0, expected))
          << "trial " << trial << " C=" << b.size();
      if (r.kind == BestResponse::Case::kInterior) {
        EXPECT_LE(r.iterations, evaluation_bound(2 * b.size()))
            << "trial " << trial;
      } else {
        EXPECT_EQ(r.iterations, 0) << "trial " << trial;
      }

      // KKT of the fill at p*: loaded sections share Z_c' = rho*, idle ones
      // price at or above it, and the row sums to p*.
      const double rho = r.level;
      double sum = 0.0;
      for (std::size_t c = 0; c < b.size(); ++c) {
        ASSERT_GE(row[c], 0.0);
        sum += row[c];
        const double marginal = costs[c]->derivative(b[c] + row[c]);
        if (row[c] > 0.0) {
          EXPECT_NEAR(marginal, rho, 1e-9 * rho)
              << "trial " << trial << " section " << c;
        } else {
          EXPECT_GE(marginal, rho * (1.0 - 1e-9))
              << "trial " << trial << " section " << c;
        }
      }
      EXPECT_NEAR(sum, r.p_star, 1e-9 * std::max(1.0, r.p_star))
          << "trial " << trial;
    }
  }
}

TEST(PerSectionSolver, IdenticalCostsMatchTheOneCostSolver) {
  util::Rng rng(0x1dc7);
  for (int trial = 0; trial < 100; ++trial) {
    const auto sections = static_cast<std::size_t>(rng.uniform_int(1, 60));
    const double cap = rng.uniform(10.0, 90.0);
    const SectionCost z(
        std::make_unique<NonlinearPricing>(rng.uniform(1.0, 20.0), 0.875, cap),
        OverloadCost{rng.uniform(0.5, 3.0)}, olev::util::kw(cap));
    // Every fourth corridor has equal loads, so every entry price ties.
    std::vector<double> b(sections, rng.uniform(0.0, 1.5 * cap));
    if (trial % 4 != 0) {
      for (double& v : b) v = rng.uniform(0.0, 1.5 * cap);
    }
    const std::vector<const SectionCost*> costs(sections, &z);
    const PriceCurve curve(costs, b);
    const SortedLoads sorted(b);
    const double weight = rng.uniform(1.0, 50.0);
    const double p_max = rng.uniform(1.0, 150.0);
    const LogSatisfaction log_u(weight);
    const SqrtSatisfaction sqrt_u(weight);
    const QuadraticSatisfaction quadratic_u(weight, rng.uniform(5.0, 200.0));
    for (const Satisfaction* u :
         {static_cast<const Satisfaction*>(&log_u),
          static_cast<const Satisfaction*>(&sqrt_u),
          static_cast<const Satisfaction*>(&quadratic_u)}) {
      std::vector<double> row(sections);
      const double per_section =
          best_response_into(*u, curve, olev::util::kw(p_max), row).p_star;
      const double one_cost =
          best_response_into(*u, z, sorted, olev::util::kw(p_max), row).p_star;
      EXPECT_NEAR(per_section, one_cost, 1e-9 * std::max(1.0, one_cost))
          << "trial " << trial << " C=" << sections;
    }
  }
}

TEST(UtilityDerivative, MatchesComponents) {
  const SectionCost z = make_cost();
  LogSatisfaction u(10.0);
  const std::vector<double> b{2.0, 4.0};
  for (double p : {0.0, 1.0, 10.0}) {
    EXPECT_NEAR(utility_derivative(u, z, b, olev::util::kw(p)),
                u.derivative(p) - payment_derivative(z, b, olev::util::kw(p)), 1e-12);
  }
}

}  // namespace
}  // namespace olev::core
