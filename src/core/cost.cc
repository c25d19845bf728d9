#include "core/cost.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/hot.h"

namespace olev::core {

// Real-time wall manifest: every concrete cost evaluation reachable from a
// hot best-response / engine quote is rooted, so the subtrees behind the
// sanctioned virtual dispatch sites below are checked independently.
OLEV_HOT_ROOT("olev::core::NonlinearPricing::value");
OLEV_HOT_ROOT("olev::core::NonlinearPricing::derivative");
OLEV_HOT_ROOT("olev::core::NonlinearPricing::curvature");
OLEV_HOT_ROOT("olev::core::LinearPricing::value");
OLEV_HOT_ROOT("olev::core::LinearPricing::derivative");
OLEV_HOT_ROOT("olev::core::LinearPricing::curvature");
OLEV_HOT_ROOT("olev::core::OverloadCost::value");
OLEV_HOT_ROOT("olev::core::OverloadCost::derivative");
OLEV_HOT_ROOT("olev::core::SectionCost::value");
OLEV_HOT_ROOT("olev::core::SectionCost::derivative");
OLEV_HOT_ROOT("olev::core::SectionCost::derivative_inverse");
OLEV_RT_VCALL_OK("olev::core::SectionCost::value",
                 "CostPolicy::value dispatch; every override is a registered "
                 "hot root");
OLEV_RT_VCALL_OK("olev::core::SectionCost::derivative",
                 "CostPolicy::derivative dispatch; every override is a "
                 "registered hot root");
OLEV_RT_VCALL_OK("olev::core::SectionCost::derivative_inverse",
                 "CostPolicy dispatch via curvature()/derivative(); every "
                 "override is a registered hot root");

NonlinearPricing::NonlinearPricing(double beta, double alpha, double p_ref)
    : beta_(beta), alpha_(alpha), p_ref_(p_ref) {
  if (beta <= 0.0) throw std::invalid_argument("NonlinearPricing: beta must be positive");
  if (alpha < 0.0) throw std::invalid_argument("NonlinearPricing: alpha must be >= 0");
  if (p_ref <= 0.0) throw std::invalid_argument("NonlinearPricing: p_ref must be positive");
}

double NonlinearPricing::value(double x) const {
  const double t = alpha_ + x / p_ref_;
  return beta_ * t * t;
}

double NonlinearPricing::derivative(double x) const {
  return 2.0 * beta_ * (alpha_ + x / p_ref_) / p_ref_;
}

double NonlinearPricing::curvature() const {
  return 2.0 * beta_ / (p_ref_ * p_ref_);
}

std::unique_ptr<CostPolicy> NonlinearPricing::clone() const {
  return std::make_unique<NonlinearPricing>(*this);
}

LinearPricing::LinearPricing(double beta) : beta_(beta) {
  if (beta <= 0.0) throw std::invalid_argument("LinearPricing: beta must be positive");
}

double LinearPricing::value(double x) const { return beta_ * x; }

double LinearPricing::derivative(double /*x*/) const { return beta_; }

double LinearPricing::curvature() const { return 0.0; }

std::unique_ptr<CostPolicy> LinearPricing::clone() const {
  return std::make_unique<LinearPricing>(*this);
}

double OverloadCost::value(double y) const {
  const double over = std::max(0.0, y);
  return weight * over * over;
}

double OverloadCost::derivative(double y) const {
  return y <= 0.0 ? 0.0 : 2.0 * weight * y;
}

SectionCost::SectionCost(std::unique_ptr<CostPolicy> v, OverloadCost a,
                         util::Kilowatts cap)
    : v_(std::move(v)), a_(a), cap_kw_(cap.value()) {
  if (v_ == nullptr) throw std::invalid_argument("SectionCost: null cost policy");
  if (cap_kw_ < 0.0) throw std::invalid_argument("SectionCost: negative capacity");
}

SectionCost::SectionCost(const SectionCost& other)
    : v_(other.v_->clone()), a_(other.a_), cap_kw_(other.cap_kw_) {}

SectionCost& SectionCost::operator=(const SectionCost& other) {
  if (this != &other) {
    v_ = other.v_->clone();
    a_ = other.a_;
    cap_kw_ = other.cap_kw_;
  }
  return *this;
}

double SectionCost::value(double x) const {
  return v_->value(x) + a_.value(x - cap_kw_);
}

double SectionCost::derivative(double x) const {
  return v_->derivative(x) + a_.derivative(x - cap_kw_);
}

double SectionCost::derivative_inverse(double marginal) const {
  if (!strictly_convex()) {
    util::hot_fail_logic_error(
        "SectionCost::derivative_inverse: Z' is constant under linear pricing "
        "with no overload cost; the water level is not identified");
  }
  const double at_zero = derivative(0.0);
  if (marginal <= at_zero) return 0.0;
  // Below the cap Z' = Z'(0) + V'' x; above it the hinge adds 2 w (x - cap).
  const double slope = v_->curvature();
  const double at_cap = derivative(cap_kw_);
  if (marginal <= at_cap) return (marginal - at_zero) / slope;
  return cap_kw_ + (marginal - at_cap) / (slope + 2.0 * a_.weight);
}

}  // namespace olev::core
