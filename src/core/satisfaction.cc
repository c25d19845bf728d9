#include "core/satisfaction.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/hot.h"

namespace olev::core {

// Real-time wall manifest: every satisfaction evaluation dispatched from a
// hot best-response / mean-field aggregate is rooted.  The closed forms
// below only touch allowed libm leaves (log1p, sqrt); the base-class
// bisection fallback dispatches back through derivative(), and the base
// derivative_inverse through affine_crossing, hence the vcall allowances.
OLEV_HOT_ROOT("olev::core::Satisfaction::derivative_inverse");
OLEV_HOT_ROOT("olev::core::Satisfaction::affine_crossing");
OLEV_HOT_ROOT("olev::core::LogSatisfaction::value");
OLEV_HOT_ROOT("olev::core::LogSatisfaction::derivative");
OLEV_HOT_ROOT("olev::core::LogSatisfaction::derivative_inverse");
OLEV_HOT_ROOT("olev::core::LogSatisfaction::affine_crossing");
OLEV_HOT_ROOT("olev::core::SqrtSatisfaction::value");
OLEV_HOT_ROOT("olev::core::SqrtSatisfaction::derivative");
OLEV_HOT_ROOT("olev::core::SqrtSatisfaction::derivative_inverse");
OLEV_HOT_ROOT("olev::core::QuadraticSatisfaction::value");
OLEV_HOT_ROOT("olev::core::QuadraticSatisfaction::derivative");
OLEV_HOT_ROOT("olev::core::QuadraticSatisfaction::derivative_inverse");
OLEV_HOT_ROOT("olev::core::QuadraticSatisfaction::affine_crossing");
OLEV_RT_VCALL_OK("olev::core::Satisfaction::derivative_inverse",
                 "flat-price fallback dispatches affine_crossing(); every "
                 "override is a registered hot root");
OLEV_RT_VCALL_OK("olev::core::Satisfaction::affine_crossing",
                 "bisection fallback dispatches derivative(); every override "
                 "is a registered hot root");

double Satisfaction::derivative_inverse(double marginal) const {
  if (!(marginal > 0.0)) {
    util::hot_fail_invalid_argument(
        "Satisfaction::derivative_inverse: marginal must be positive");
  }
  // A flat price over [0, inf): 0 when U'(0) <= marginal, +infinity when U'
  // stays above it.
  return affine_crossing(marginal, 0.0, 0.0,
                         std::numeric_limits<double>::infinity());
}

double Satisfaction::affine_crossing(double a, double b, double lo,
                                     double hi) const {
  // G(p) = U'(p) - (a + b * p) is strictly decreasing: bisect its sign
  // change until no double is left between the ends.
  const auto above = [&](double p) { return derivative(p) > a + b * p; };
  if (!above(lo)) return lo;
  if (std::isinf(hi)) {
    // U' is strictly decreasing, so the crossing lies below the first
    // doubling where U' falls to the line; past 1e18 kW the demand is
    // effectively unbounded.
    double top = std::max(1.0, 2.0 * lo);
    while (above(top)) {
      lo = top;
      top *= 2.0;
      if (top > 1e18) return hi;
    }
    hi = top;
  } else if (above(hi)) {
    return hi;
  }
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (!(mid > lo && mid < hi)) break;
    (above(mid) ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

LogSatisfaction::LogSatisfaction(double weight, double scale)
    : weight_(weight), scale_(scale) {
  if (weight <= 0.0 || scale <= 0.0) {
    throw std::invalid_argument("LogSatisfaction: weight and scale must be positive");
  }
}

double LogSatisfaction::value(double p) const {
  return weight_ * std::log1p(p / scale_);
}

double LogSatisfaction::derivative(double p) const {
  return weight_ / (scale_ + p);
}

double LogSatisfaction::derivative_inverse(double marginal) const {
  if (!(marginal > 0.0)) {
    util::hot_fail_invalid_argument(
        "LogSatisfaction::derivative_inverse: marginal must be positive");
  }
  // w / (s + p) = m  =>  p = w/m - s, clamped at 0 when U'(0) <= m.
  const double p = weight_ / marginal - scale_;
  return p > 0.0 ? p : 0.0;
}

double LogSatisfaction::affine_crossing(double a, double b, double lo,
                                        double hi) const {
  // w / (s + p) = a + b p  <=>  b p^2 + (a + b s) p + (a s - w) = 0, and the
  // root with s + p > 0 is the larger one.  Written so that neither sign of
  // a + b s cancels; b = 0 with a <= 0 never crosses (+infinity, so hi).
  const double sum = a + b * scale_;
  const double gap = a - b * scale_;
  const double root = std::sqrt(gap * gap + 4.0 * b * weight_);
  const double p = sum >= 0.0 ? 2.0 * (weight_ - a * scale_) / (sum + root)
                              : (root - sum) / (2.0 * b);
  return std::clamp(p, lo, hi);
}

std::unique_ptr<Satisfaction> LogSatisfaction::clone() const {
  return std::make_unique<LogSatisfaction>(*this);
}

SqrtSatisfaction::SqrtSatisfaction(double weight) : weight_(weight) {
  if (weight <= 0.0) throw std::invalid_argument("SqrtSatisfaction: weight must be positive");
}

double SqrtSatisfaction::value(double p) const {
  return weight_ * (std::sqrt(1.0 + p) - 1.0);
}

double SqrtSatisfaction::derivative(double p) const {
  return weight_ * 0.5 / std::sqrt(1.0 + p);
}

double SqrtSatisfaction::derivative_inverse(double marginal) const {
  if (!(marginal > 0.0)) {
    util::hot_fail_invalid_argument(
        "SqrtSatisfaction::derivative_inverse: marginal must be positive");
  }
  // w / (2 sqrt(1 + p)) = m  =>  p = (w / (2m))^2 - 1.
  const double root = weight_ * 0.5 / marginal;
  const double p = root * root - 1.0;
  return p > 0.0 ? p : 0.0;
}

std::unique_ptr<Satisfaction> SqrtSatisfaction::clone() const {
  return std::make_unique<SqrtSatisfaction>(*this);
}

QuadraticSatisfaction::QuadraticSatisfaction(double weight, double cap)
    : weight_(weight), cap_(cap) {
  if (weight <= 0.0 || cap <= 0.0) {
    throw std::invalid_argument("QuadraticSatisfaction: weight and cap must be positive");
  }
}

double QuadraticSatisfaction::value(double p) const {
  return weight_ * (p - p * p / (2.0 * cap_));
}

double QuadraticSatisfaction::derivative(double p) const {
  return weight_ * (1.0 - p / cap_);
}

double QuadraticSatisfaction::derivative_inverse(double marginal) const {
  if (!(marginal > 0.0)) {
    util::hot_fail_invalid_argument(
        "QuadraticSatisfaction::derivative_inverse: marginal must be positive");
  }
  // w (1 - p/cap) = m  =>  p = cap (1 - m/w); satiation bounds it by cap.
  const double p = cap_ * (1.0 - marginal / weight_);
  return p > 0.0 ? p : 0.0;
}

double QuadraticSatisfaction::affine_crossing(double a, double b, double lo,
                                              double hi) const {
  // w (1 - p/cap) = a + b p  =>  p = (w - a) / (w/cap + b).  U' is the same
  // line past satiation, so this holds there too.
  const double p = (weight_ - a) / (weight_ / cap_ + b);
  return std::clamp(p, lo, hi);
}

std::unique_ptr<Satisfaction> QuadraticSatisfaction::clone() const {
  return std::make_unique<QuadraticSatisfaction>(*this);
}

}  // namespace olev::core
