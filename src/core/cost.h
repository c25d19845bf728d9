// Power-charging cost V, overload cost A, and the combined section cost
// Z(x) = V(x) + A(x - eta * P_line)  (Section IV-B, Eq. 6-7).
//
// The paper's evaluation instantiates
//   nonlinear: V(x) = beta * (alpha + x / P_ref)^2   (strictly convex)
//   linear:    V(x) = beta * x                       (the comparison baseline)
// with beta = LBMP and alpha = 0.875.  A is a smooth hinge penalty that
// activates when section load exceeds the eta * P_line safety cap.
#pragma once

#include <memory>

#include "util/quantity.h"

namespace olev::core {

/// Power charging cost V(.): convex, nondecreasing, V(0) finite.
class CostPolicy {
 public:
  virtual ~CostPolicy() = default;
  virtual double value(double x) const = 0;
  virtual double derivative(double x) const = 0;
  /// V'', constant for both policies (V is at most quadratic), so V' is
  /// affine and SectionCost can invert Z' in closed form.
  virtual double curvature() const = 0;
  /// True when value() is strictly convex (unique water-filling level
  /// exists).  The linear baseline returns false.
  bool strictly_convex() const { return curvature() > 0.0; }
  virtual std::unique_ptr<CostPolicy> clone() const = 0;
};

/// The paper's nonlinear pricing: V(x) = beta * (alpha + x / p_ref)^2.
class NonlinearPricing final : public CostPolicy {
 public:
  NonlinearPricing(double beta, double alpha, double p_ref);
  double value(double x) const override;
  double derivative(double x) const override;
  double curvature() const override;
  std::unique_ptr<CostPolicy> clone() const override;

  double beta() const { return beta_; }
  double alpha() const { return alpha_; }
  double p_ref() const { return p_ref_; }

 private:
  double beta_;
  double alpha_;
  double p_ref_;
};

/// Linear baseline: V(x) = beta * x.
class LinearPricing final : public CostPolicy {
 public:
  explicit LinearPricing(double beta);
  double value(double x) const override;
  double derivative(double x) const override;
  double curvature() const override;
  std::unique_ptr<CostPolicy> clone() const override;

  double beta() const { return beta_; }

 private:
  double beta_;
};

/// Overload cost A(y) = weight * max(0, y)^2: zero below the cap, smooth
/// (C^1) quadratic penalty above it.
struct OverloadCost {
  double weight = 1.0;

  double value(double y) const;
  double derivative(double y) const;
};

/// Z(x) = V(x) + A(x - cap): the per-section cost the payment rule charges
/// against.  Shared by all sections (the paper assumes a homogeneous
/// corridor: identical V, A and cap across sections).
class SectionCost {
 public:
  SectionCost(std::unique_ptr<CostPolicy> v, OverloadCost a, util::Kilowatts cap);
  SectionCost(const SectionCost& other);
  SectionCost& operator=(const SectionCost& other);
  SectionCost(SectionCost&&) noexcept = default;
  SectionCost& operator=(SectionCost&&) noexcept = default;

  double value(double x) const;
  double derivative(double x) const;
  /// Inverse of the derivative on [0, inf): the (Z')^{-1} of Lemma IV.1.
  /// Z' = V' + A' is affine on each side of the safety cap, so this is one
  /// division on the piece holding `marginal`; 0 at or below Z'(0).
  /// Requires a strictly convex Z (logic_error otherwise).
  double derivative_inverse(double marginal) const;

  bool strictly_convex() const { return v_->strictly_convex() || a_.weight > 0.0; }
  double cap_kw() const { return cap_kw_; }
  const CostPolicy& pricing() const { return *v_; }
  const OverloadCost& overload() const { return a_; }

 private:
  std::unique_ptr<CostPolicy> v_;
  OverloadCost a_;
  double cap_kw_;
};

}  // namespace olev::core
