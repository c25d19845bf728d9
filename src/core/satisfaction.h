// OLEV satisfaction functions U_n (Section IV-B).
//
// The paper requires U_n to be strictly increasing, strictly concave, with
// continuous second derivative; its evaluation uses U_n(p) = log(1 + p).
// Everything downstream (best response, convergence proof, central oracle)
// only needs value() and derivative(), so satisfaction is a small interface
// with a few verified concrete families.
#pragma once

#include <memory>

namespace olev::core {

class Satisfaction {
 public:
  virtual ~Satisfaction() = default;
  /// U(p) for p >= 0; U(0) must be 0 (no power, no satisfaction).
  virtual double value(double p) const = 0;
  /// U'(p) > 0, strictly decreasing (strict concavity).
  virtual double derivative(double p) const = 0;
  /// (U')^{-1}: the p >= 0 with U'(p) == marginal, or 0 when U'(0) <=
  /// marginal already.  Because U' is strictly decreasing this is the
  /// one-shot best response to a flat marginal price -- the O(1)-per-player
  /// primitive of the mean-field engine (core/mean_field.h).  May return
  /// +infinity when U' stays above `marginal` forever (log/sqrt families as
  /// marginal -> 0); callers clamp to the physical cap.  The base
  /// implementation is affine_crossing(marginal, 0, 0, inf); concrete
  /// families override with closed forms.  Requires marginal > 0.
  virtual double derivative_inverse(double marginal) const;
  /// The p in [lo, hi] where U'(p) meets the affine price a + b * p, for
  /// b >= 0: lo when U'(lo) <= a + b * lo already, hi when U' stays above
  /// the line up to hi.  U'(p) - a - b * p is strictly decreasing, so the
  /// crossing is unique.  This is the best response on one piece of a
  /// piecewise-linear price curve (core/best_response.h); b = 0 over
  /// [0, inf) is derivative_inverse.  `hi` may be +infinity.  The base
  /// implementation bisects on derivative(); concrete families override
  /// with closed forms.  Every result is clamped to [lo, hi].
  virtual double affine_crossing(double a, double b, double lo,
                                 double hi) const;
  virtual std::unique_ptr<Satisfaction> clone() const = 0;
};

/// U(p) = w * log(1 + p / s).  The paper's choice with w = s = 1.
class LogSatisfaction final : public Satisfaction {
 public:
  explicit LogSatisfaction(double weight = 1.0, double scale = 1.0);
  double value(double p) const override;
  double derivative(double p) const override;
  double derivative_inverse(double marginal) const override;
  double affine_crossing(double a, double b, double lo,
                         double hi) const override;
  std::unique_ptr<Satisfaction> clone() const override;
  double weight() const { return weight_; }

 private:
  double weight_;
  double scale_;
};

/// U(p) = w * (sqrt(1 + p) - 1): heavier tail than log (slower saturation).
class SqrtSatisfaction final : public Satisfaction {
 public:
  explicit SqrtSatisfaction(double weight = 1.0);
  double value(double p) const override;
  double derivative(double p) const override;
  double derivative_inverse(double marginal) const override;
  std::unique_ptr<Satisfaction> clone() const override;

 private:
  double weight_;
};

/// U(p) = w * (p - p^2 / (2 * cap)), valid (strictly increasing) on
/// [0, cap); models a hard satiation level.  Requires the game to cap the
/// player's request below `cap`.
class QuadraticSatisfaction final : public Satisfaction {
 public:
  QuadraticSatisfaction(double weight, double cap);
  double value(double p) const override;
  double derivative(double p) const override;
  double derivative_inverse(double marginal) const override;
  double affine_crossing(double a, double b, double lo,
                         double hi) const override;
  std::unique_ptr<Satisfaction> clone() const override;

 private:
  double weight_;
  double cap_;
};

}  // namespace olev::core
