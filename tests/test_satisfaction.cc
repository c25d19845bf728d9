#include "core/satisfaction.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <vector>

namespace olev::core {
namespace {

// A family under test.  The label is what gtest prints for the parameter,
// so the test names stay the same from one build to the next (a bare
// shared_ptr would print its heap address).
struct Family {
  const char* label;
  std::shared_ptr<Satisfaction> u;
};

void PrintTo(const Family& family, std::ostream* os) { *os << family.label; }

// The paper requires U to be strictly increasing and strictly concave with
// U(0) = 0.  These parameterized properties run over every concrete family.
class SatisfactionProperties : public ::testing::TestWithParam<Family> {};

TEST_P(SatisfactionProperties, ZeroAtZero) {
  EXPECT_NEAR(GetParam().u->value(0.0), 0.0, 1e-12);
}

TEST_P(SatisfactionProperties, StrictlyIncreasing) {
  const auto& u = *GetParam().u;
  double prev = u.value(0.0);
  for (double p = 1.0; p <= 50.0; p += 1.0) {
    const double v = u.value(p);
    EXPECT_GT(v, prev) << "at p=" << p;
    prev = v;
  }
}

TEST_P(SatisfactionProperties, DerivativePositive) {
  const auto& u = *GetParam().u;
  for (double p = 0.0; p <= 50.0; p += 2.5) {
    EXPECT_GT(u.derivative(p), 0.0) << "at p=" << p;
  }
}

TEST_P(SatisfactionProperties, DerivativeStrictlyDecreasing) {
  const auto& u = *GetParam().u;
  double prev = u.derivative(0.0);
  for (double p = 1.0; p <= 50.0; p += 1.0) {
    const double d = u.derivative(p);
    EXPECT_LT(d, prev) << "at p=" << p;
    prev = d;
  }
}

TEST_P(SatisfactionProperties, DerivativeMatchesFiniteDifference) {
  const auto& u = *GetParam().u;
  constexpr double kH = 1e-6;
  for (double p : {0.5, 3.0, 10.0, 40.0}) {
    const double numeric = (u.value(p + kH) - u.value(p - kH)) / (2.0 * kH);
    EXPECT_NEAR(u.derivative(p), numeric, 1e-5) << "at p=" << p;
  }
}

TEST_P(SatisfactionProperties, CloneIsIndependentCopy) {
  const auto& u = *GetParam().u;
  const auto copy = u.clone();
  for (double p : {0.0, 1.0, 7.0, 30.0}) {
    EXPECT_DOUBLE_EQ(copy->value(p), u.value(p));
    EXPECT_DOUBLE_EQ(copy->derivative(p), u.derivative(p));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, SatisfactionProperties,
    ::testing::Values(
        Family{"Log", std::make_shared<LogSatisfaction>()},
        Family{"Log_w3_s2", std::make_shared<LogSatisfaction>(3.0, 2.0)},
        Family{"Sqrt", std::make_shared<SqrtSatisfaction>()},
        Family{"Sqrt_w5", std::make_shared<SqrtSatisfaction>(5.0)},
        Family{"Quadratic_w1_cap100",
               std::make_shared<QuadraticSatisfaction>(1.0, 100.0)},
        Family{"Quadratic_w2.5_cap60",
               std::make_shared<QuadraticSatisfaction>(2.5, 60.0)}));

TEST(LogSatisfaction, MatchesPaperForm) {
  // The paper's evaluation: U(p) = log(1 + p).
  LogSatisfaction u;
  EXPECT_NEAR(u.value(4.0), std::log(5.0), 1e-12);
  EXPECT_NEAR(u.derivative(4.0), 0.2, 1e-12);
}

TEST(LogSatisfaction, WeightAndScale) {
  LogSatisfaction u(2.0, 4.0);
  EXPECT_NEAR(u.value(4.0), 2.0 * std::log(2.0), 1e-12);
}

TEST(LogSatisfaction, RejectsBadParameters) {
  EXPECT_THROW(LogSatisfaction(0.0), std::invalid_argument);
  EXPECT_THROW(LogSatisfaction(1.0, -1.0), std::invalid_argument);
}

TEST(SqrtSatisfaction, RejectsBadParameters) {
  EXPECT_THROW(SqrtSatisfaction(-1.0), std::invalid_argument);
}

TEST(QuadraticSatisfaction, RejectsBadParameters) {
  EXPECT_THROW(QuadraticSatisfaction(0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(QuadraticSatisfaction(1.0, 0.0), std::invalid_argument);
}

TEST(QuadraticSatisfaction, SaturatesAtCap) {
  QuadraticSatisfaction u(1.0, 50.0);
  EXPECT_NEAR(u.derivative(50.0), 0.0, 1e-12);
}

}  // namespace
}  // namespace olev::core
