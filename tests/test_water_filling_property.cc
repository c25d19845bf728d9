// Property-based cross-check of the three water-filling solvers.
//
// For ~1000 random (b, total) instances:
//   * water_fill, water_fill_bisect and generalized_fill (with identical
//     per-section costs) must agree on the allocation;
//   * the budget is conserved: sum(row) == total;
//   * every entry is non-negative;
//   * no *inactive* section sits below the water level (a section left
//     empty must already be loaded to at least lambda*);
//   * SortedLoads reproduces water_fill bit-for-bit.

#include "core/water_filling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "core/cost.h"
#include "util/rng.h"

namespace olev::core {
namespace {

constexpr int kTrials = 1000;

double sum_of(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0);
}

struct Instance {
  std::vector<double> b;
  double total = 0.0;
};

Instance random_instance(util::Rng& rng, int trial) {
  Instance instance;
  const auto sections = static_cast<std::size_t>(rng.uniform_int(1, 80));
  instance.b.resize(sections);
  for (double& v : instance.b) v = rng.uniform(0.0, 60.0);
  // Exercise the edge lattice: zero totals, all-equal loads, duplicated
  // minima, tiny totals -- not just generic interiors.
  switch (trial % 7) {
    case 0:
      instance.total = 0.0;
      break;
    case 1:
      std::fill(instance.b.begin(), instance.b.end(), rng.uniform(0.0, 30.0));
      instance.total = rng.uniform(0.0, 100.0);
      break;
    case 2: {
      const double low = rng.uniform(0.0, 5.0);
      for (std::size_t c = 0; c + 1 < instance.b.size(); c += 2) {
        instance.b[c] = low;
      }
      instance.total = rng.uniform(0.0, 100.0);
      break;
    }
    case 3:
      instance.total = rng.uniform(0.0, 1e-7);
      break;
    default:
      instance.total = rng.uniform(0.0, 300.0);
      break;
  }
  return instance;
}

// Scale-aware tolerance: 1e-9 absolute for unit-scale instances, relative
// for large totals.
double tol(double total) { return 1e-9 * std::max(1.0, total); }

TEST(WaterFillProperty, SolversAgreeAndInvariantsHold) {
  util::Rng rng(0xf177);
  const SectionCost shared_cost(
      std::make_unique<NonlinearPricing>(5.0, 0.875, 40.0), OverloadCost{1.0},
      olev::util::kw(40.0));

  for (int trial = 0; trial < kTrials; ++trial) {
    const Instance instance = random_instance(rng, trial);
    const auto& b = instance.b;
    const double total = instance.total;

    const WaterFillResult exact = water_fill(b, olev::util::kw(total));
    const WaterFillResult bisect = water_fill_bisect(b, olev::util::kw(total), 1e-13);
    std::vector<const SectionCost*> costs(b.size(), &shared_cost);
    const GeneralizedFillResult general =
        generalized_fill(costs, b, olev::util::kw(total));

    // Conservation and non-negativity for every solver.
    EXPECT_NEAR(sum_of(exact.row), total, tol(total)) << "trial " << trial;
    EXPECT_NEAR(sum_of(bisect.row), total, tol(total)) << "trial " << trial;
    EXPECT_NEAR(sum_of(general.row), total, tol(total)) << "trial " << trial;
    for (std::size_t c = 0; c < b.size(); ++c) {
      EXPECT_GE(exact.row[c], 0.0) << "trial " << trial;
      EXPECT_GE(bisect.row[c], 0.0) << "trial " << trial;
      EXPECT_GE(general.row[c], 0.0) << "trial " << trial;
    }

    // The three solvers agree entry-wise.
    for (std::size_t c = 0; c < b.size(); ++c) {
      EXPECT_NEAR(exact.row[c], bisect.row[c], tol(total))
          << "trial " << trial << " section " << c;
      EXPECT_NEAR(exact.row[c], general.row[c], tol(total))
          << "trial " << trial << " section " << c;
    }

    // No inactive section below the water level: if p_c == 0 then
    // b_c >= lambda* (else water-filling would have used it).
    if (total > 0.0) {
      for (std::size_t c = 0; c < b.size(); ++c) {
        if (exact.row[c] == 0.0) {
          EXPECT_GE(b[c], exact.level - tol(total))
              << "trial " << trial << " section " << c;
        }
      }
    }
  }
}

TEST(WaterFillProperty, SortedLoadsIsBitIdenticalToWaterFill) {
  util::Rng rng(0x50f7);
  for (int trial = 0; trial < kTrials; ++trial) {
    const Instance instance = random_instance(rng, trial);
    const auto& b = instance.b;

    const WaterFillResult reference = water_fill(b, olev::util::kw(instance.total));
    const SortedLoads sorted(b);
    const WaterFillResult cached = sorted.fill(olev::util::kw(instance.total));
    EXPECT_EQ(reference.level, cached.level) << "trial " << trial;
    EXPECT_EQ(reference.active_sections, cached.active_sections)
        << "trial " << trial;
    for (std::size_t c = 0; c < b.size(); ++c) {
      EXPECT_EQ(reference.row[c], cached.row[c])
          << "trial " << trial << " section " << c;
    }
  }
}

}  // namespace
}  // namespace olev::core
