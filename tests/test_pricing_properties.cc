// Parameterized property sweep over the pricing calculus: for a grid of
// (beta, alpha, cap, overload-weight) configurations, verify the analytic
// identities every other module relies on -- Z's convexity, the derivative
// definitions, the envelope-theorem identity, and best-response optimality.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/best_response.h"
#include "core/payment.h"
#include "util/rng.h"

namespace olev::core {
namespace {

struct PricingParams {
  double beta;
  double alpha;
  double cap;
  double overload_weight;
};

std::string params_name(const ::testing::TestParamInfo<PricingParams>& info) {
  auto clean = [](double v) {
    std::string s = std::to_string(v);
    for (char& c : s) {
      if (c == '.' || c == '-') c = '_';
    }
    return s;
  };
  // Appended into one string: chained operator+ trips gcc 12's false-positive
  // -Wrestrict at -O3 (GCC bug 105651).
  std::string name = "b";
  name += clean(info.param.beta);
  name += "_a";
  name += clean(info.param.alpha);
  name += "_c";
  name += clean(info.param.cap);
  name += "_w";
  name += clean(info.param.overload_weight);
  return name;
}

class PricingCalculus : public ::testing::TestWithParam<PricingParams> {
 protected:
  SectionCost cost() const {
    const auto& p = GetParam();
    return SectionCost(
        std::make_unique<NonlinearPricing>(p.beta, p.alpha, p.cap),
        OverloadCost{p.overload_weight}, olev::util::kw(p.cap));
  }

  std::vector<double> loads(std::uint64_t seed) const {
    util::Rng rng(seed);
    std::vector<double> b(static_cast<std::size_t>(rng.uniform_int(1, 8)));
    for (double& v : b) v = rng.uniform(0.0, GetParam().cap);
    return b;
  }
};

TEST_P(PricingCalculus, ZIsStrictlyConvexAndIncreasing) {
  const SectionCost z = cost();
  const double cap = GetParam().cap;
  double prev_value = z.value(0.0);
  double prev_slope = z.derivative(0.0);
  for (double x = cap / 16.0; x <= 2.0 * cap; x += cap / 16.0) {
    EXPECT_GT(z.value(x), prev_value) << "x=" << x;
    EXPECT_GT(z.derivative(x), prev_slope) << "x=" << x;
    prev_value = z.value(x);
    prev_slope = z.derivative(x);
  }
}

TEST_P(PricingCalculus, DerivativeMatchesFiniteDifference) {
  const SectionCost z = cost();
  const double cap = GetParam().cap;
  const double h = 1e-6 * cap;
  // Avoid straddling the hinge at x = cap where Z is only C^1.
  for (double x : {0.1 * cap, 0.6 * cap, 1.4 * cap}) {
    const double numeric = (z.value(x + h) - z.value(x - h)) / (2.0 * h);
    EXPECT_NEAR(z.derivative(x), numeric,
                1e-4 * std::max(1.0, std::abs(numeric)))
        << "x=" << x;
  }
}

TEST_P(PricingCalculus, DerivativeInverseIsRightInverse) {
  const SectionCost z = cost();
  const double cap = GetParam().cap;
  for (double x : {0.0, 0.3 * cap, cap, 1.7 * cap}) {
    EXPECT_NEAR(z.derivative_inverse(z.derivative(x)), x, 1e-4 * (1.0 + x))
        << "x=" << x;
  }
}

TEST_P(PricingCalculus, PaymentIsUnbiasedAndIncreasing) {
  const SectionCost z = cost();
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    const auto b = loads(seed);
    EXPECT_DOUBLE_EQ(payment_of_total(z, b, olev::util::kw(0.0)), 0.0);
    double prev = 0.0;
    for (double total = 0.2 * GetParam().cap; total <= 2.0 * GetParam().cap;
         total += 0.2 * GetParam().cap) {
      const double payment = payment_of_total(z, b, olev::util::kw(total));
      EXPECT_GT(payment, prev) << "seed " << seed << " total " << total;
      prev = payment;
    }
  }
}

TEST_P(PricingCalculus, EnvelopeIdentity) {
  // Psi'(p) == Z'(lambda*(p)) for every configuration.
  const SectionCost z = cost();
  const double cap = GetParam().cap;
  for (std::uint64_t seed : {4ULL, 5ULL}) {
    const auto b = loads(seed);
    const double h = 1e-5 * cap;
    for (double total : {0.25 * cap, 0.9 * cap, 1.6 * cap}) {
      const double numeric = (payment_of_total(z, b, olev::util::kw(total + h)) -
                              payment_of_total(z, b, olev::util::kw(total - h))) /
                             (2.0 * h);
      EXPECT_NEAR(payment_derivative(z, b, olev::util::kw(total)), numeric,
                  2e-3 * std::max(1.0, numeric))
          << "seed " << seed << " total " << total;
    }
  }
}

TEST_P(PricingCalculus, BestResponseIsGloballyOptimal) {
  const SectionCost z = cost();
  const LogSatisfaction u(0.5 * GetParam().beta + 2.0);
  for (std::uint64_t seed : {6ULL, 7ULL}) {
    const auto b = loads(seed);
    const double p_max = 1.5 * GetParam().cap;
    const BestResponse response = best_response(u, z, b, olev::util::kw(p_max));
    for (int i = 0; i <= 40; ++i) {
      const double p = p_max * i / 40.0;
      const double utility = u.value(p) - payment_of_total(z, b, olev::util::kw(p));
      EXPECT_LE(utility, response.utility + 1e-6)
          << "seed " << seed << " p=" << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PricingCalculus,
    ::testing::Values(PricingParams{1.0, 0.875, 40.0, 1.0},
                      PricingParams{16.0, 0.875, 67.6, 0.5},
                      PricingParams{5.0, 0.0, 25.0, 2.0},
                      PricingParams{50.0, 2.0, 100.0, 0.1},
                      PricingParams{0.05, 0.5, 10.0, 5.0},
                      PricingParams{244.04, 0.875, 56.4, 1.0}),
    params_name);

}  // namespace
}  // namespace olev::core
