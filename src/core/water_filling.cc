#include "core/water_filling.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/cost.h"
#include "obs/obs.h"
#include "util/audit.h"
#include "util/hot.h"

namespace olev::core {

// Real-time wall manifest (tools/olev_rtcheck.py): the repeated-query
// members of SortedLoads and PriceCurve and the volume evaluator are the
// allocation-free water-filling kernel the update paths lean on.
OLEV_HOT_ROOT("olev::core::SortedLoads::reassign");
OLEV_HOT_ROOT("olev::core::SortedLoads::level_for");
OLEV_HOT_ROOT("olev::core::SortedLoads::fill_into");
OLEV_HOT_ROOT("olev::core::water_fill_volume");
OLEV_HOT_ROOT("olev::core::PriceCurve::reassign");
OLEV_HOT_ROOT("olev::core::PriceCurve::price_for");
OLEV_HOT_ROOT("olev::core::PriceCurve::fill_into");
OLEV_RT_VCALL_OK("olev::core::PriceCurve::reassign",
                 "CostPolicy::curvature dispatch; every override is a "
                 "registered hot root");

namespace {

#if OLEV_AUDIT_ENABLED
// Post-conditions shared by every water-filling solver (Lemma IV.1 and its
// per-section form, the conservation constraint of Eq. 12): the row is
// non-negative and finite, sums back to the request, and satisfies the KKT
// complementarity -- loaded sections sit exactly at the level, untouched
// sections at or above it.  `level_at(c, x)` is section c's level at load x:
// x itself for one cost (the water level), Z_c'(x) per section (the
// marginal price).  `tol` is relative (see audit::close); the exact solvers
// pass 1e-9, the bisection solver a band derived from its own tolerance.
// Opens a HotBypass: the checks below format strings, and the fills run
// them inside armed hot regions in audit builds.
template <class LevelAt>
void audit_fill(std::span<const double> others_load, double total,
                std::span<const double> row, double level, double tol,
                const char* who, LevelAt level_at) {
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
    const double at = level_at(c, b + fill);
    if (fill > 0.0) {
      OLEV_AUDIT_CHECK(audit::close(at, level, tol),
                       std::string(who) + ": loaded section " +
                           std::to_string(c) + " off the level: " +
                           std::to_string(at) + " vs " + std::to_string(level));
    } else {
      OLEV_AUDIT_CHECK(at >= level - tol * std::max(1.0, std::abs(level)),
                       std::string(who) + ": idle section " +
                           std::to_string(c) + " below the level: " +
                           std::to_string(at) + " vs " + std::to_string(level));
    }
    sum += fill;
  }
  OLEV_AUDIT_CHECK(audit::close(sum, total, tol),
                   std::string(who) + ": allocation sums to " +
                       std::to_string(sum) + ", request was " +
                       std::to_string(total));
}

// The one-cost level of a section at load x is x itself.
constexpr auto kLoadLevel = [](std::size_t, double x) { return x; };
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
                               "SortedLoads::fill", kLoadLevel);)
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
                             "water_fill_bisect", kLoadLevel);)
  return result;
}

PriceCurve::PriceCurve(std::span<const SectionCost* const> section_costs,
                       std::span<const double> others_load) {
  reserve(others_load.size());
  reassign(section_costs, others_load);
}

void PriceCurve::reserve(std::size_t sections) {
  if (sections > others_.size()) {
    others_.resize(sections);
    kinks_.resize(2 * sections);
  }
}

void PriceCurve::reassign(std::span<const SectionCost* const> section_costs,
                          std::span<const double> others_load) {
  if (section_costs.size() != others_load.size() || others_load.empty() ||
      others_load.size() > others_.size()) {
    util::hot_fail_invalid_argument(
        "PriceCurve: need one cost per section, at least one section and "
        "no more than reserved");
  }
  costs_ = section_costs;
  sections_ = others_load.size();
  std::copy(others_load.begin(), others_load.end(), others_.begin());
  // A kink's `slope` holds the change of dD/drho there until the fold below
  // turns it into the slope above the kink: past its entry price section c
  // adds 1/Z_c'', and past its cap price the overload term steepens Z_c''.
  size_ = 0;
  for (std::size_t c = 0; c < sections_; ++c) {
    const SectionCost& cost = *section_costs[c];
    const double curvature = cost.pricing().curvature();
    if (!(curvature > 0.0)) {
      util::hot_fail_invalid_argument(
          "PriceCurve: every section needs a strictly convex cost (V'' > 0)");
    }
    const double b = others_load[c];
    const double above = 1.0 / (curvature + 2.0 * cost.overload().weight);
    const double below = b < cost.cap_kw() ? 1.0 / curvature : above;
    kinks_[size_++] = {cost.derivative(b), 0.0, below};
    if (below != above) {
      kinks_[size_++] = {cost.derivative(cost.cap_kw()), 0.0, above - below};
    }
  }
  std::sort(kinks_.begin(), kinks_.begin() + static_cast<std::ptrdiff_t>(size_),
            [](const Kink& a, const Kink& b) { return a.price < b.price; });
  double slope = 0.0;
  for (std::size_t j = 0; j < size_; ++j) {
    if (j > 0) {
      kinks_[j].total =
          kinks_[j - 1].total + slope * (kinks_[j].price - kinks_[j - 1].price);
    }
    slope += kinks_[j].slope;
    kinks_[j].slope = slope;
  }
}

double PriceCurve::price_for(Kilowatts total_kw) const {
  const double total = total_kw.value();
  if (size_ == 0 || total < 0.0) {
    util::hot_fail_invalid_argument("PriceCurve: empty curve or negative total");
  }
  if (total == 0.0) return kinks_[0].price;
  // The first breakpoint whose D reaches `total` ends its piece.
  std::size_t lo = 1;
  std::size_t hi = size_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (total <= kinks_[mid].total) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return price_on(lo, total);
}

double PriceCurve::fill_into(Kilowatts total_kw, std::span<double> row,
                             int* active_sections) const {
  const double total = total_kw.value();
  if (row.size() != sections_) {
    util::hot_fail_invalid_argument("PriceCurve::fill_into: row length mismatch");
  }
  const double price = price_for(total_kw);
  int active = 0;
  for (std::size_t c = 0; c < sections_; ++c) {
    row[c] = total == 0.0 ? 0.0
                          : std::max(0.0, costs_[c]->derivative_inverse(price) -
                                              others_[c]);
    if (row[c] > 0.0) ++active;
  }
  OLEV_AUDIT_ONLY(audit_fill(
      {others_.data(), sections_}, total, row, price, 1e-9, "PriceCurve::fill",
      [this](std::size_t c, double x) { return costs_[c]->derivative(x); });)
  if (active_sections != nullptr) *active_sections = active;
  return price;
}

GeneralizedFillResult generalized_fill(
    std::span<const SectionCost* const> section_costs,
    std::span<const double> others_load, Kilowatts total) {
  for (const SectionCost* cost : section_costs) {
    if (cost == nullptr || !cost->pricing().strictly_convex()) {
      throw std::invalid_argument(
          "generalized_fill: every section needs a strictly convex cost");
    }
  }
  GeneralizedFillResult result;
  result.row.resize(others_load.size());
  result.marginal = PriceCurve(section_costs, others_load)
                        .fill_into(total, result.row, &result.active_sections);
  return result;
}

}  // namespace olev::core
