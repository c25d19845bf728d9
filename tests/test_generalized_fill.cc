#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "core/cost.h"
#include "core/water_filling.h"

namespace olev::core {
namespace {

SectionCost make_cost(double cap) {
  return SectionCost(std::make_unique<NonlinearPricing>(8.0, 0.875, cap),
                     OverloadCost{1.5}, olev::util::kw(cap));
}

std::vector<const SectionCost*> pointers(const std::vector<SectionCost>& costs) {
  std::vector<const SectionCost*> out;
  for (const SectionCost& cost : costs) out.push_back(&cost);
  return out;
}

TEST(GeneralizedFill, Validation) {
  std::vector<SectionCost> costs;
  costs.push_back(make_cost(40.0));
  const auto ptrs = pointers(costs);
  const std::vector<double> wrong_b{1.0, 2.0};
  EXPECT_THROW((void)generalized_fill(ptrs, wrong_b, olev::util::kw(1.0)), std::invalid_argument);
  const std::vector<double> b{1.0};
  EXPECT_THROW((void)generalized_fill(ptrs, b, olev::util::kw(-1.0)), std::invalid_argument);
  const std::vector<const SectionCost*> with_null{nullptr};
  EXPECT_THROW((void)generalized_fill(with_null, b, olev::util::kw(1.0)), std::invalid_argument);
}

TEST(GeneralizedFill, RejectsLinearSections) {
  std::vector<SectionCost> costs;
  costs.emplace_back(std::make_unique<LinearPricing>(2.0), OverloadCost{0.0},
                     olev::util::kw(40.0));
  const auto ptrs = pointers(costs);
  const std::vector<double> b{0.0};
  EXPECT_THROW((void)generalized_fill(ptrs, b, olev::util::kw(1.0)), std::invalid_argument);
  // V'' = 0 plus an overload hinge: the fill volume D jumps at the cap
  // price, so a linear V is rejected with the hinge too.
  std::vector<SectionCost> hinged;
  hinged.emplace_back(std::make_unique<LinearPricing>(2.0), OverloadCost{1.5},
                      olev::util::kw(40.0));
  EXPECT_THROW((void)generalized_fill(pointers(hinged), b, olev::util::kw(1.0)),
               std::invalid_argument);
}

TEST(GeneralizedFill, HomogeneousReducesToWaterFill) {
  std::vector<SectionCost> costs;
  for (int c = 0; c < 4; ++c) costs.push_back(make_cost(40.0));
  const auto ptrs = pointers(costs);
  const std::vector<double> b{3.0, 1.0, 8.0, 2.0};
  for (double total : {0.0, 2.5, 9.0, 40.0}) {
    const auto general = generalized_fill(ptrs, b, olev::util::kw(total));
    const auto classic = water_fill(b, olev::util::kw(total));
    for (std::size_t c = 0; c < b.size(); ++c) {
      EXPECT_NEAR(general.row[c], classic.row[c], 1e-5)
          << "total " << total << " section " << c;
    }
  }
}

TEST(GeneralizedFill, BudgetConservation) {
  std::vector<SectionCost> costs;
  costs.push_back(make_cost(20.0));
  costs.push_back(make_cost(60.0));
  costs.push_back(make_cost(40.0));
  const auto ptrs = pointers(costs);
  const std::vector<double> b{5.0, 0.0, 2.0};
  for (double total : {1.0, 10.0, 50.0}) {
    const auto result = generalized_fill(ptrs, b, olev::util::kw(total));
    const double sum =
        std::accumulate(result.row.begin(), result.row.end(), 0.0);
    EXPECT_NEAR(sum, total, 1e-6) << "total " << total;
    for (double v : result.row) EXPECT_GE(v, 0.0);
  }
}

TEST(GeneralizedFill, KktStationarity) {
  // Active sections share the marginal price; inactive sections are already
  // at or above it.
  std::vector<SectionCost> costs;
  costs.push_back(make_cost(20.0));
  costs.push_back(make_cost(60.0));
  costs.push_back(make_cost(35.0));
  const auto ptrs = pointers(costs);
  const std::vector<double> b{4.0, 1.0, 30.0};
  const auto result = generalized_fill(ptrs, b, olev::util::kw(12.0));
  for (std::size_t c = 0; c < b.size(); ++c) {
    const double marginal_here = costs[c].derivative(b[c] + result.row[c]);
    if (result.row[c] > 1e-9) {
      EXPECT_NEAR(marginal_here, result.marginal,
                  1e-3 * std::max(1.0, result.marginal))
          << "section " << c;
    } else {
      EXPECT_GE(marginal_here, result.marginal - 1e-6) << "section " << c;
    }
  }
}

TEST(GeneralizedFill, CheaperSectionGetsMore) {
  // Larger cap -> lower marginal cost at equal load -> more allocation.
  std::vector<SectionCost> costs;
  costs.push_back(make_cost(20.0));
  costs.push_back(make_cost(80.0));
  const auto ptrs = pointers(costs);
  const std::vector<double> b{0.0, 0.0};
  const auto result = generalized_fill(ptrs, b, olev::util::kw(10.0));
  EXPECT_GT(result.row[1], result.row[0]);
}

TEST(GeneralizedFill, MinimizesTotalCostAmongRandomSplits) {
  std::vector<SectionCost> costs;
  costs.push_back(make_cost(25.0));
  costs.push_back(make_cost(50.0));
  costs.push_back(make_cost(75.0));
  const auto ptrs = pointers(costs);
  const std::vector<double> b{2.0, 6.0, 1.0};
  const double total = 9.0;
  const auto result = generalized_fill(ptrs, b, olev::util::kw(total));
  auto cost_of = [&](const std::vector<double>& row) {
    double sum = 0.0;
    for (std::size_t c = 0; c < row.size(); ++c) {
      sum += costs[c].value(b[c] + row[c]);
    }
    return sum;
  };
  const double optimal = cost_of(result.row);
  for (int i = 0; i <= 20; ++i) {
    for (int j = 0; i + j <= 20; ++j) {
      const double x = total * i / 20.0;
      const double y = total * j / 20.0;
      if (x + y > total) continue;
      const std::vector<double> alt{x, y, total - x - y};
      EXPECT_GE(cost_of(alt), optimal - 1e-6) << "alt " << x << "," << y;
    }
  }
}

TEST(GeneralizedFill, ZeroTotalReportsMinMarginal) {
  std::vector<SectionCost> costs;
  costs.push_back(make_cost(20.0));
  costs.push_back(make_cost(60.0));
  const auto ptrs = pointers(costs);
  const std::vector<double> b{0.0, 0.0};
  const auto result = generalized_fill(ptrs, b, olev::util::kw(0.0));
  EXPECT_EQ(result.active_sections, 0);
  EXPECT_NEAR(result.marginal,
              std::min(costs[0].derivative(0.0), costs[1].derivative(0.0)),
              1e-12);
}

TEST(PriceCurve, TotalsAreTheFillVolumeAtEveryBreakpoint) {
  // Sections below, at and above their caps: the folded totals must equal
  // D(rho) = sum_c [(Z_c')^{-1}(rho) - b_c]^+ summed afresh at each price,
  // and price_for must invert them.
  std::vector<SectionCost> costs;
  for (double cap : {20.0, 60.0, 35.0, 45.0}) costs.push_back(make_cost(cap));
  const auto ptrs = pointers(costs);
  const std::vector<double> b{4.0, 60.0, 50.0, 0.0};
  const PriceCurve curve(ptrs, b);
  ASSERT_EQ(curve.sections(), b.size());
  // Two kinks for each of the two sections below their caps, one each above.
  ASSERT_EQ(curve.size(), 6u);
  EXPECT_EQ(curve.total(0), 0.0);
  for (std::size_t j = 0; j < curve.size(); ++j) {
    double volume = 0.0;
    for (std::size_t c = 0; c < b.size(); ++c) {
      volume += std::max(0.0, costs[c].derivative_inverse(curve.price(j)) - b[c]);
    }
    EXPECT_NEAR(curve.total(j), volume, 1e-9 * std::max(1.0, volume))
        << "breakpoint " << j;
    if (j > 0) {
      EXPECT_GE(curve.price(j), curve.price(j - 1)) << "breakpoint " << j;
      EXPECT_NEAR(curve.price_for(olev::util::kw(curve.total(j))),
                  curve.price(j), 1e-9 * curve.price(j))
          << "breakpoint " << j;
    }
  }
}

}  // namespace
}  // namespace olev::core
