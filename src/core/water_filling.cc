#include "core/water_filling.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/cost.h"
#include "obs/obs.h"
#include "util/audit.h"
#include "util/hot.h"

namespace olev::core {

// Real-time wall manifest (tools/olev_rtcheck.py): the repeated-query
// members of SortedLoads and the volume evaluator are the allocation-free
// water-filling kernel the serving path leans on.
OLEV_HOT_ROOT("olev::core::SortedLoads::reassign");
OLEV_HOT_ROOT("olev::core::SortedLoads::level_for");
OLEV_HOT_ROOT("olev::core::SortedLoads::fill_into");
OLEV_HOT_ROOT("olev::core::water_fill_volume");
OLEV_HOT_ROOT("olev::core::generalized_fill_into");

namespace {

#if OLEV_AUDIT_ENABLED
// Post-conditions shared by every water-filling solver (Lemma IV.1, the
// conservation constraint of Eq. 12): the row is non-negative and finite,
// sums back to the request, and satisfies water-level complementarity --
// loaded sections sit exactly at the level, untouched sections at or above
// it.  `tol` is relative (see audit::close); the exact solver passes 1e-9,
// the bisection solvers pass a band derived from their own tolerance.
// Opens a HotBypass: the checks below format strings, and fill_into runs
// them inside armed hot regions in audit builds.
void audit_fill(std::span<const double> others_load, double total,
                std::span<const double> row, double level, double tol,
                const char* who) {
  const util::audit::HotBypass hot_bypass;
  namespace audit = util::audit;
  OLEV_AUDIT_FINITE(total, who);
  OLEV_AUDIT_FINITE(level, who);
  OLEV_AUDIT_CHECK(row.size() == others_load.size(),
                   std::string(who) + ": row/b shape mismatch");
  double sum = 0.0;
  for (std::size_t c = 0; c < row.size(); ++c) {
    const double b = others_load[c];
    const double fill = row[c];
    OLEV_AUDIT_FINITE(b, std::string(who) + ": b[" + std::to_string(c) + "]");
    OLEV_AUDIT_FINITE(fill,
                      std::string(who) + ": row[" + std::to_string(c) + "]");
    OLEV_AUDIT_CHECK(fill >= 0.0, std::string(who) + ": negative allocation " +
                                      std::to_string(fill) + " on section " +
                                      std::to_string(c));
    if (fill > 0.0) {
      OLEV_AUDIT_CHECK(audit::close(b + fill, level, tol),
                       std::string(who) + ": loaded section " +
                           std::to_string(c) + " off the water level: b+p=" +
                           std::to_string(b + fill) + " level=" +
                           std::to_string(level));
    } else {
      OLEV_AUDIT_CHECK(b >= level - tol * std::max(1.0, std::abs(level)),
                       std::string(who) + ": idle section " +
                           std::to_string(c) + " below the water level: b=" +
                           std::to_string(b) + " level=" +
                           std::to_string(level));
    }
    sum += fill;
  }
  OLEV_AUDIT_CHECK(audit::close(sum, total, tol),
                   std::string(who) + ": allocation sums to " +
                       std::to_string(sum) + ", request was " +
                       std::to_string(total));
}
#endif

}  // namespace

double water_fill_volume(std::span<const double> others_load,
                         Kilowatts level_kw) {
  const double level = level_kw.value();
  double volume = 0.0;
  for (double b : others_load) volume += std::max(0.0, level - b);
  return volume;
}

namespace {

// The level that exhausts `total` against pre-sorted loads.  After filling
// the k lowest loads b_(0..k-1) the candidate level is
// (total + sum b_(0..k-1)) / k; it is valid once it does not exceed the next
// load b_(k).  Validity is monotone in k (if level_k <= b_(k) then level_{k+1}
// is a convex combination of level_k and b_(k), hence <= b_(k) <= b_(k+1)),
// so the smallest valid k is found by binary search.  `prefix[k]` is the
// fold-left sum of sorted[0..k).  Pointer-based so SortedLoads can pass its
// reserved (over-sized) buffers.
double level_from_sorted(const double* sorted, const double* prefix,
                         std::size_t count, double total) {
  std::size_t lo = 1;
  std::size_t hi = count;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;  // mid < count
    const double level = (total + prefix[mid]) / static_cast<double>(mid);
    if (level <= sorted[mid]) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return (total + prefix[lo]) / static_cast<double>(lo);
}

}  // namespace

SortedLoads::SortedLoads(std::span<const double> others_load) {
  assign(others_load);
}

void SortedLoads::reserve(std::size_t cap) {
  if (cap > values_.size()) {
    values_.resize(cap);
    sorted_.resize(cap);
  }
  if (prefix_.size() < cap + 1) prefix_.resize(cap + 1);
}

void SortedLoads::assign(std::span<const double> others_load) {
  reserve(others_load.size());
  reassign(others_load);
}

void SortedLoads::reassign(std::span<const double> others_load) {
  if (others_load.size() > values_.size()) {
    util::hot_fail_invalid_argument(
        "SortedLoads::reassign: b exceeds the reserved capacity");
  }
  size_ = others_load.size();
  std::copy(others_load.begin(), others_load.end(), values_.begin());
  std::copy(others_load.begin(), others_load.end(), sorted_.begin());
  std::sort(sorted_.begin(), sorted_.begin() + static_cast<std::ptrdiff_t>(size_));
  prefix_[0] = 0.0;
  for (std::size_t k = 1; k <= size_; ++k) {
    prefix_[k] = prefix_[k - 1] + sorted_[k - 1];
  }
}

double SortedLoads::level_for(Kilowatts total_kw) const {
  const double total = total_kw.value();
  if (size_ == 0) {
    util::hot_fail_invalid_argument("SortedLoads: need at least one section");
  }
  if (total < 0.0) {
    util::hot_fail_invalid_argument("SortedLoads: negative total");
  }
  if (total == 0.0) return sorted_[0];
  return level_from_sorted(sorted_.data(), prefix_.data(), size_, total);
}

double SortedLoads::fill_into(Kilowatts total_kw, std::span<double> row,
                              int* active_sections) const {
  const double total = total_kw.value();
  if (row.size() != size_) {
    util::hot_fail_invalid_argument("SortedLoads::fill_into: row length mismatch");
  }
  const double level = level_for(total_kw);
  int active = 0;
  if (total == 0.0) {
    for (std::size_t c = 0; c < size_; ++c) row[c] = 0.0;
  } else {
    for (std::size_t c = 0; c < size_; ++c) {
      const double fill = std::max(0.0, level - values_[c]);
      row[c] = fill;
      if (fill > 0.0) ++active;
    }
    OLEV_AUDIT_ONLY(audit_fill(values(), total, row, level, 1e-9,
                               "SortedLoads::fill");)
  }
  if (active_sections != nullptr) *active_sections = active;
  return level;
}

WaterFillResult SortedLoads::fill(Kilowatts total_kw) const {
  WaterFillResult result;
  result.row.resize(size_);
  result.level = fill_into(total_kw, result.row, &result.active_sections);
  return result;
}

WaterFillResult water_fill(std::span<const double> others_load,
                           Kilowatts total) {
  return SortedLoads(others_load).fill(total);
}

WaterFillResult water_fill_bisect(std::span<const double> others_load,
                                  Kilowatts total_kw, double tolerance) {
  const double total = total_kw.value();
  if (others_load.empty()) {
    throw std::invalid_argument("water_fill_bisect: need at least one section");
  }
  if (total < 0.0) throw std::invalid_argument("water_fill_bisect: negative total");

  WaterFillResult result;
  result.row.assign(others_load.size(), 0.0);
  const double b_min = *std::min_element(others_load.begin(), others_load.end());
  if (total == 0.0) {
    result.level = b_min;
    return result;
  }

  const double b_max = *std::max_element(others_load.begin(), others_load.end());
  double lo = b_min;
  double hi = b_max + total;  // Y(hi) >= total always
  int iterations = 0;
  while (hi - lo > tolerance && iterations < 200) {
    const double mid = 0.5 * (lo + hi);
    if (water_fill_volume(others_load, Kilowatts{mid}) < total) {
      lo = mid;
    } else {
      hi = mid;
    }
    ++iterations;
  }
  result.level = 0.5 * (lo + hi);
  result.iterations = iterations;
  OLEV_OBS_HISTOGRAM(obs_iterations, "core.water_fill.bisect_iterations",
                     {0, 10, 20, 30, 40, 50, 60, 80, 100, 200});
  OLEV_OBS_OBSERVE(obs_iterations, static_cast<double>(iterations));
  for (std::size_t c = 0; c < others_load.size(); ++c) {
    const double fill = std::max(0.0, result.level - others_load[c]);
    result.row[c] = fill;
    if (fill > 0.0) ++result.active_sections;
  }
  // Re-normalize bisection dust so the row sums exactly to `total`.
  double sum = 0.0;
  for (double v : result.row) sum += v;
  if (sum > 0.0) {
    const double scale = total / sum;
    for (double& v : result.row) v *= scale;
  }
  // The bisection bracket closed to `tolerance`, so the lambda* contract
  // only holds to a band of that width (the exact solver audits at 1e-9).
  OLEV_AUDIT_ONLY(audit_fill(others_load, total, result.row, result.level,
                             std::max(1e-9, 10.0 * tolerance),
                             "water_fill_bisect");)
  return result;
}

GeneralizedFillResult generalized_fill(
    std::span<const SectionCost* const> section_costs,
    std::span<const double> others_load, Kilowatts total, double tolerance) {
  for (const SectionCost* cost : section_costs) {
    if (cost == nullptr || !cost->strictly_convex()) {
      throw std::invalid_argument(
          "generalized_fill: every section needs a strictly convex cost");
    }
  }
  GeneralizedFillResult result;
  result.row.resize(others_load.size());
  result.marginal = generalized_fill_into(section_costs, others_load, total,
                                          result.row, tolerance);
  for (double v : result.row) {
    if (v > 0.0) ++result.active_sections;
  }
  return result;
}

double generalized_fill_into(std::span<const SectionCost* const> section_costs,
                             std::span<const double> others_load,
                             Kilowatts total_kw, std::span<double> row,
                             double tolerance) {
  const double total = total_kw.value();
  if (section_costs.size() != others_load.size() || section_costs.empty() ||
      row.size() != others_load.size()) {
    util::hot_fail_invalid_argument(
        "generalized_fill_into: shape mismatch or empty");
  }
  if (total < 0.0) {
    util::hot_fail_invalid_argument("generalized_fill_into: negative total");
  }

  // Allocation at a trial marginal price rho, written to `out` if non-null.
  auto allocation_at = [&](double rho, double* out) {
    double sum = 0.0;
    for (std::size_t c = 0; c < section_costs.size(); ++c) {
      const double target = section_costs[c]->derivative_inverse(rho);
      const double fill = std::max(0.0, target - others_load[c]);
      if (out != nullptr) out[c] = fill;
      sum += fill;
    }
    return sum;
  };

  // rho must exceed the smallest marginal price at the current loads for
  // any allocation to be positive.
  double lo = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < section_costs.size(); ++c) {
    lo = std::min(lo, section_costs[c]->derivative(others_load[c]));
  }
  if (total == 0.0) {
    std::fill(row.begin(), row.end(), 0.0);
    return lo;
  }
  double hi = lo + 1.0;
  int guard = 0;
  while (allocation_at(hi, nullptr) < total && guard++ < 200) {
    hi = lo + (hi - lo) * 2.0;
  }
  int iterations = 0;
  while (hi - lo > tolerance * std::max(1.0, hi) && iterations < 200) {
    const double mid = 0.5 * (lo + hi);
    if (allocation_at(mid, nullptr) < total) {
      lo = mid;
    } else {
      hi = mid;
    }
    ++iterations;
  }
  const double marginal = 0.5 * (lo + hi);
  allocation_at(marginal, row.data());
  // Scale out the bisection dust.
  double sum = 0.0;
  for (double v : row) sum += v;
  if (sum > 0.0) {
    const double scale = total / sum;
    for (double& v : row) v *= scale;
  }
#if OLEV_AUDIT_ENABLED
  {
    // Heterogeneous KKT contract: loaded sections equalize marginal cost at
    // rho*, idle sections already price at or above it; the row conserves
    // the request.  The band is wider than the homogeneous case because the
    // bisection on rho stops at `tolerance`.
    namespace audit = util::audit;
    const double band = std::max(1e-6, 10.0 * tolerance);
    double audit_sum = 0.0;
    for (std::size_t c = 0; c < row.size(); ++c) {
      const double fill = row[c];
      OLEV_AUDIT_FINITE(fill, "generalized_fill: row[" + std::to_string(c) + "]");
      OLEV_AUDIT_CHECK(fill >= 0.0,
                       "generalized_fill: negative allocation on section " +
                           std::to_string(c));
      audit_sum += fill;
      const double marginal_here =
          section_costs[c]->derivative(others_load[c] + fill);
      if (fill > 0.0) {
        OLEV_AUDIT_CHECK(
            audit::close(marginal_here, marginal, band),
            "generalized_fill: loaded section " + std::to_string(c) +
                " off the marginal price: Z'=" + std::to_string(marginal_here) +
                " rho*=" + std::to_string(marginal));
      } else {
        OLEV_AUDIT_CHECK(
            marginal_here >=
                marginal - band * std::max(1.0, std::abs(marginal)),
            "generalized_fill: idle section " + std::to_string(c) +
                " priced below rho*: Z'=" + std::to_string(marginal_here) +
                " rho*=" + std::to_string(marginal));
      }
    }
    OLEV_AUDIT_CHECK(audit::close(audit_sum, total, std::max(1e-9, tolerance)),
                     "generalized_fill: allocation sums to " +
                         std::to_string(audit_sum) + ", request was " +
                         std::to_string(total));
  }
#endif
  return marginal;
}

}  // namespace olev::core
