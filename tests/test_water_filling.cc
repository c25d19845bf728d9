#include "core/water_filling.h"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/rng.h"

namespace olev::core {
namespace {

double sum_of(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0);
}

TEST(WaterFillVolume, MatchesDefinition) {
  const std::vector<double> b{1.0, 3.0, 5.0};
  EXPECT_DOUBLE_EQ(water_fill_volume(b, olev::util::kw(0.0)), 0.0);
  EXPECT_DOUBLE_EQ(water_fill_volume(b, olev::util::kw(2.0)), 1.0);        // [1]+0+0
  EXPECT_DOUBLE_EQ(water_fill_volume(b, olev::util::kw(4.0)), 3.0 + 1.0);  // 3+1
  EXPECT_DOUBLE_EQ(water_fill_volume(b, olev::util::kw(6.0)), 5.0 + 3.0 + 1.0);
}

TEST(WaterFill, ValidatesInput) {
  EXPECT_THROW((void)water_fill({}, olev::util::kw(1.0)), std::invalid_argument);
  const std::vector<double> b{1.0};
  EXPECT_THROW((void)water_fill(b, olev::util::kw(-1.0)), std::invalid_argument);
}

TEST(WaterFill, ZeroTotalGivesZeroRow) {
  const std::vector<double> b{2.0, 1.0, 3.0};
  const auto result = water_fill(b, olev::util::kw(0.0));
  EXPECT_DOUBLE_EQ(sum_of(result.row), 0.0);
  EXPECT_DOUBLE_EQ(result.level, 1.0);  // min load
  EXPECT_EQ(result.active_sections, 0);
}

TEST(WaterFill, UniformLoadsSplitEvenly) {
  const std::vector<double> b{5.0, 5.0, 5.0, 5.0};
  const auto result = water_fill(b, olev::util::kw(8.0));
  for (double v : result.row) EXPECT_NEAR(v, 2.0, 1e-12);
  EXPECT_NEAR(result.level, 7.0, 1e-12);
  EXPECT_EQ(result.active_sections, 4);
}

TEST(WaterFill, FillsLowestSectionsFirst) {
  const std::vector<double> b{0.0, 10.0};
  const auto result = water_fill(b, olev::util::kw(5.0));
  EXPECT_NEAR(result.row[0], 5.0, 1e-12);
  EXPECT_NEAR(result.row[1], 0.0, 1e-12);
  EXPECT_EQ(result.active_sections, 1);
}

TEST(WaterFill, SpillsOverWhenBudgetLarge) {
  const std::vector<double> b{0.0, 10.0};
  const auto result = water_fill(b, olev::util::kw(30.0));
  // Level: (30 + 10) / 2 = 20.
  EXPECT_NEAR(result.level, 20.0, 1e-12);
  EXPECT_NEAR(result.row[0], 20.0, 1e-12);
  EXPECT_NEAR(result.row[1], 10.0, 1e-12);
}

TEST(WaterFill, KnownThreeSectionCase) {
  const std::vector<double> b{1.0, 2.0, 6.0};
  const auto result = water_fill(b, olev::util::kw(3.0));
  // Level (3 + 1 + 2)/2 = 3 <= 6: sections 0 and 1 active.
  EXPECT_NEAR(result.level, 3.0, 1e-12);
  EXPECT_NEAR(result.row[0], 2.0, 1e-12);
  EXPECT_NEAR(result.row[1], 1.0, 1e-12);
  EXPECT_NEAR(result.row[2], 0.0, 1e-12);
}

TEST(WaterFill, Lemma41Form) {
  // p_{n,c} = [lambda* - b_c]^+ for every section.
  const std::vector<double> b{4.0, 0.5, 7.0, 2.0};
  const auto result = water_fill(b, olev::util::kw(6.5));
  for (std::size_t c = 0; c < b.size(); ++c) {
    EXPECT_NEAR(result.row[c], std::max(0.0, result.level - b[c]), 1e-12);
  }
  EXPECT_NEAR(sum_of(result.row), 6.5, 1e-12);
}

TEST(WaterFill, PostAllocationLoadsEqualizeOnActiveSections) {
  const std::vector<double> b{3.0, 1.0, 8.0, 2.0};
  const auto result = water_fill(b, olev::util::kw(9.0));
  for (std::size_t c = 0; c < b.size(); ++c) {
    if (result.row[c] > 0.0) {
      EXPECT_NEAR(b[c] + result.row[c], result.level, 1e-12);
    } else {
      EXPECT_GE(b[c], result.level - 1e-12);
    }
  }
}

TEST(WaterFillBisect, AgreesWithExactSolver) {
  util::Rng rng(31337);
  for (int trial = 0; trial < 200; ++trial) {
    const auto sections = static_cast<std::size_t>(rng.uniform_int(1, 40));
    std::vector<double> b(sections);
    for (double& v : b) v = rng.uniform(0.0, 50.0);
    const double total = rng.uniform(0.0, 200.0);
    const auto exact = water_fill(b, olev::util::kw(total));
    const auto approx = water_fill_bisect(b, olev::util::kw(total));
    EXPECT_NEAR(exact.level, approx.level, 1e-6) << "trial " << trial;
    for (std::size_t c = 0; c < sections; ++c) {
      EXPECT_NEAR(exact.row[c], approx.row[c], 1e-6)
          << "trial " << trial << " section " << c;
    }
  }
}

TEST(WaterFillBisect, RowSumsExactlyToTotal) {
  const std::vector<double> b{2.0, 9.0, 4.0};
  const auto result = water_fill_bisect(b, olev::util::kw(7.5));
  EXPECT_NEAR(sum_of(result.row), 7.5, 1e-12);
}

TEST(WaterFillBisect, ValidatesInput) {
  EXPECT_THROW((void)water_fill_bisect({}, olev::util::kw(1.0)), std::invalid_argument);
  const std::vector<double> b{1.0};
  EXPECT_THROW((void)water_fill_bisect(b, olev::util::kw(-0.5)), std::invalid_argument);
}

TEST(WaterFill, SingleSectionTakesEverything) {
  const std::vector<double> b{42.0};
  const auto result = water_fill(b, olev::util::kw(13.0));
  EXPECT_NEAR(result.row[0], 13.0, 1e-12);
  EXPECT_NEAR(result.level, 55.0, 1e-12);
}

TEST(WaterFill, PropertyRandomizedInvariants) {
  util::Rng rng(777);
  for (int trial = 0; trial < 500; ++trial) {
    const auto sections = static_cast<std::size_t>(rng.uniform_int(1, 64));
    std::vector<double> b(sections);
    for (double& v : b) v = rng.uniform(0.0, 100.0);
    const double total = rng.uniform(0.0, 500.0);
    const auto result = water_fill(b, olev::util::kw(total));
    // (1) budget conservation
    EXPECT_NEAR(sum_of(result.row), total, 1e-8);
    // (2) nonnegativity
    for (double v : result.row) EXPECT_GE(v, 0.0);
    // (3) Lemma IV.1 form
    for (std::size_t c = 0; c < sections; ++c) {
      EXPECT_NEAR(result.row[c], std::max(0.0, result.level - b[c]), 1e-8);
    }
    // (4) Y(level) recovers the total
    EXPECT_NEAR(water_fill_volume(b, olev::util::kw(result.level)), total, 1e-8);
  }
}

TEST(WaterFill, MinimizesConvexCostAmongAlternatives) {
  // Water-filling minimizes sum Z(b_c + p_c) for strictly convex Z among all
  // feasible splits (Eq. 11).  Compare against random alternative splits.
  auto z = [](double x) { return (0.875 + x / 10.0) * (0.875 + x / 10.0); };
  const std::vector<double> b{1.0, 4.0, 2.5};
  const double total = 5.0;
  const auto optimal = water_fill(b, olev::util::kw(total));
  double optimal_cost = 0.0;
  for (std::size_t c = 0; c < b.size(); ++c) optimal_cost += z(b[c] + optimal.row[c]);

  util::Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    // Random split of `total` over three sections.
    double u1 = rng.uniform(0.0, total);
    double u2 = rng.uniform(0.0, total);
    if (u1 > u2) std::swap(u1, u2);
    const std::vector<double> alt{u1, u2 - u1, total - u2};
    double alt_cost = 0.0;
    for (std::size_t c = 0; c < b.size(); ++c) alt_cost += z(b[c] + alt[c]);
    EXPECT_GE(alt_cost, optimal_cost - 1e-9) << "trial " << trial;
  }
}

// ---- Edge cases pinned down while building the property suite ----

TEST(WaterFill, DuplicateMinimaShareTheBudget) {
  // Two tied minima: both become active and split evenly.
  const std::vector<double> b{2.0, 2.0, 9.0};
  const auto result = water_fill(b, olev::util::kw(4.0));
  EXPECT_DOUBLE_EQ(result.row[0], 2.0);
  EXPECT_DOUBLE_EQ(result.row[1], 2.0);
  EXPECT_DOUBLE_EQ(result.row[2], 0.0);
  EXPECT_DOUBLE_EQ(result.level, 4.0);
  EXPECT_EQ(result.active_sections, 2);
}

TEST(WaterFill, TinyTotalStaysOnMinSection) {
  // A total far below the gap to the second-lowest load must land entirely
  // on the argmin section, never spill via rounding.
  const std::vector<double> b{1.0, 1.0 + 1e-3};
  const auto result = water_fill(b, olev::util::kw(1e-10));
  // p_0 = (total + b_0) - b_0 cancels at machine epsilon of b_0, so the
  // argmin share is exact only to ~eps * b_0, not to eps * total.
  EXPECT_NEAR(result.row[0], 1e-10, 1e-15);
  EXPECT_DOUBLE_EQ(result.row[1], 0.0);
  EXPECT_EQ(result.active_sections, 1);
}

TEST(WaterFill, LevelExactlyAtNextLoadBoundary) {
  // total chosen so lambda* lands exactly on b[1]: the boundary section
  // contributes zero but either active count is consistent with the row.
  const std::vector<double> b{1.0, 3.0};
  const auto result = water_fill(b, olev::util::kw(2.0));
  EXPECT_DOUBLE_EQ(result.level, 3.0);
  EXPECT_DOUBLE_EQ(result.row[0], 2.0);
  EXPECT_DOUBLE_EQ(result.row[1], 0.0);
}

TEST(SortedLoads, HandlesSingleSectionAndRepeatedUpdates) {
  SortedLoads sorted(std::vector<double>{5.0});
  EXPECT_DOUBLE_EQ(sorted.level_for(olev::util::kw(2.0)), 7.0);
}

}  // namespace
}  // namespace olev::core
