#include "core/cost.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace olev::core {
namespace {

SectionCost nonlinear_cost(double cap = 60.0) {
  return SectionCost(std::make_unique<NonlinearPricing>(10.0, 0.875, cap),
                     OverloadCost{2.0}, olev::util::kw(cap));
}

TEST(NonlinearPricing, MatchesPaperForm) {
  // V(x) = beta (alpha + x/p_ref)^2 with the paper's alpha = 0.875.
  NonlinearPricing v(10.0, 0.875, 50.0);
  EXPECT_NEAR(v.value(0.0), 10.0 * 0.875 * 0.875, 1e-12);
  EXPECT_NEAR(v.value(50.0), 10.0 * 1.875 * 1.875, 1e-12);
  EXPECT_NEAR(v.derivative(50.0), 2.0 * 10.0 * 1.875 / 50.0, 1e-12);
}

TEST(NonlinearPricing, DerivativeMatchesFiniteDifference) {
  NonlinearPricing v(7.0, 0.875, 40.0);
  constexpr double kH = 1e-6;
  for (double x : {0.0, 10.0, 35.0, 80.0}) {
    const double numeric = (v.value(x + kH) - v.value(x - kH)) / (2.0 * kH);
    EXPECT_NEAR(v.derivative(x), numeric, 1e-5);
  }
}

TEST(NonlinearPricing, StrictlyConvexFlag) {
  NonlinearPricing v(1.0, 0.875, 10.0);
  EXPECT_TRUE(v.strictly_convex());
}

TEST(NonlinearPricing, ParameterValidation) {
  EXPECT_THROW(NonlinearPricing(0.0, 0.875, 10.0), std::invalid_argument);
  EXPECT_THROW(NonlinearPricing(1.0, -0.1, 10.0), std::invalid_argument);
  EXPECT_THROW(NonlinearPricing(1.0, 0.875, 0.0), std::invalid_argument);
}

TEST(LinearPricing, ProportionalValueFlatDerivative) {
  LinearPricing v(3.0);
  EXPECT_DOUBLE_EQ(v.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(v.value(10.0), 30.0);
  EXPECT_DOUBLE_EQ(v.derivative(0.0), 3.0);
  EXPECT_DOUBLE_EQ(v.derivative(100.0), 3.0);
  EXPECT_FALSE(v.strictly_convex());
}

TEST(LinearPricing, ParameterValidation) {
  EXPECT_THROW(LinearPricing(0.0), std::invalid_argument);
  EXPECT_THROW(LinearPricing(-2.0), std::invalid_argument);
}

TEST(OverloadCost, ZeroBelowThreshold) {
  OverloadCost a{5.0};
  EXPECT_DOUBLE_EQ(a.value(-10.0), 0.0);
  EXPECT_DOUBLE_EQ(a.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(a.derivative(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(a.derivative(0.0), 0.0);
}

TEST(OverloadCost, QuadraticAboveThreshold) {
  OverloadCost a{5.0};
  EXPECT_DOUBLE_EQ(a.value(2.0), 20.0);
  EXPECT_DOUBLE_EQ(a.derivative(2.0), 20.0);
}

TEST(OverloadCost, ContinuouslyDifferentiableAtHinge) {
  OverloadCost a{5.0};
  constexpr double kH = 1e-7;
  EXPECT_NEAR(a.derivative(0.0), (a.value(kH) - a.value(-kH)) / (2.0 * kH), 1e-5);
}

TEST(SectionCost, CombinesPricingAndOverload) {
  const SectionCost z = nonlinear_cost(60.0);
  // Below the cap: pure V.
  NonlinearPricing v(10.0, 0.875, 60.0);
  EXPECT_NEAR(z.value(30.0), v.value(30.0), 1e-12);
  // Above the cap: V plus the hinge.
  EXPECT_NEAR(z.value(70.0), v.value(70.0) + 2.0 * 100.0, 1e-12);
}

TEST(SectionCost, DerivativeIsStrictlyIncreasing) {
  const SectionCost z = nonlinear_cost(60.0);
  double prev = z.derivative(0.0);
  for (double x = 5.0; x <= 120.0; x += 5.0) {
    const double d = z.derivative(x);
    EXPECT_GT(d, prev) << "at x=" << x;
    prev = d;
  }
}

TEST(SectionCost, DerivativeInverseRoundTrip) {
  const SectionCost z = nonlinear_cost(60.0);
  for (double x : {0.0, 10.0, 45.0, 60.0, 90.0}) {
    const double marginal = z.derivative(x);
    EXPECT_NEAR(z.derivative_inverse(marginal), x, 1e-6) << "x=" << x;
  }
}

TEST(SectionCost, DerivativeInverseClampsBelowZero) {
  const SectionCost z = nonlinear_cost(60.0);
  EXPECT_DOUBLE_EQ(z.derivative_inverse(0.0), 0.0);
  EXPECT_DOUBLE_EQ(z.derivative_inverse(z.derivative(0.0) * 0.5), 0.0);
}

TEST(SectionCost, DerivativeInverseIsExactOnEachPiece) {
  // Z' is affine below the cap and above it, so the inverse is closed form:
  // Z'(Z'^{-1}(m)) = m to rounding on both pieces and exactly at the hinge.
  // The linear baseline with a hinge has a flat first piece.
  const SectionCost nonlinear = nonlinear_cost(60.0);
  const SectionCost linear(std::make_unique<LinearPricing>(2.0),
                           OverloadCost{1.0}, olev::util::kw(50.0));
  for (const SectionCost* z : {&nonlinear, &linear}) {
    const double at_zero = z->derivative(0.0);
    const double at_cap = z->derivative(z->cap_kw());
    std::vector<double> marginals{at_cap, 1.5 * at_cap, 10.0 * at_cap};
    if (at_cap > at_zero) {
      for (double t : {1e-6, 0.25, 0.5, 0.999}) {
        marginals.push_back(at_zero + t * (at_cap - at_zero));
      }
    }
    for (double m : marginals) {
      const double x = z->derivative_inverse(m);
      EXPECT_GE(x, 0.0) << "m=" << m;
      EXPECT_NEAR(z->derivative(x), m, 1e-12 * m) << "m=" << m;
    }
    const double hinge = at_cap > at_zero ? z->cap_kw() : 0.0;
    EXPECT_NEAR(z->derivative_inverse(at_cap), hinge, 1e-12 * z->cap_kw());
    // At or below Z'(0) nothing is loaded.
    EXPECT_EQ(z->derivative_inverse(at_zero), 0.0);
    EXPECT_EQ(z->derivative_inverse(0.5 * at_zero), 0.0);
  }
}

TEST(SectionCost, DerivativeInverseRejectsLinearNoOverload) {
  SectionCost z(std::make_unique<LinearPricing>(2.0), OverloadCost{0.0}, olev::util::kw(50.0));
  EXPECT_FALSE(z.strictly_convex());
  EXPECT_THROW(z.derivative_inverse(2.0), std::logic_error);
}

TEST(SectionCost, CopySemantics) {
  const SectionCost original = nonlinear_cost(60.0);
  SectionCost copy = original;
  EXPECT_DOUBLE_EQ(copy.value(33.0), original.value(33.0));
  EXPECT_DOUBLE_EQ(copy.cap_kw(), original.cap_kw());
  SectionCost assigned(std::make_unique<LinearPricing>(1.0), OverloadCost{1.0},
                       olev::util::kw(10.0));
  assigned = original;
  EXPECT_DOUBLE_EQ(assigned.value(33.0), original.value(33.0));
}

TEST(SectionCost, Validation) {
  EXPECT_THROW(SectionCost(nullptr, OverloadCost{1.0}, olev::util::kw(10.0)),
               std::invalid_argument);
  EXPECT_THROW(SectionCost(std::make_unique<LinearPricing>(1.0),
                           OverloadCost{1.0}, olev::util::kw(-5.0)),
               std::invalid_argument);
}

TEST(SectionCost, LinearWithOverloadIsConvexEnough) {
  // The linear baseline plus a positive hinge is still flagged usable by
  // the strictly-convex machinery (unique level exists above the cap).
  SectionCost z(std::make_unique<LinearPricing>(2.0), OverloadCost{1.0}, olev::util::kw(50.0));
  EXPECT_TRUE(z.strictly_convex());
}

}  // namespace
}  // namespace olev::core
