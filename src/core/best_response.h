// Lemma IV.3: the optimal power request of OLEV n against the announced
// payment function is
//
//   p* = 0                        if F'(0) < 0
//   p* = P_OLEV_n                 if F'(P_OLEV_n) > 0
//   p* : F'(p*) = 0               otherwise,
//
// with F(p) = U_n(p) - Psi_n(p) strictly concave, so F'(p) = U'_n(p) -
// Psi_n'(p) is strictly decreasing and the interior root is unique.
//
// Psi_n'(p) is piecewise linear on both corridors.  With one Z (the paper's),
// Psi_n'(p) = Z'(lambda*(p)), and with the loads sorted, s_0 <= ... <=
// s_{C-1}, S_k = s_0 + ... + s_{k-1}, Lemma IV.1 puts the level at
// lambda = (p + S_k) / k for p between the breakpoints q_{k-1} and
// q_k = k * s_k - S_k.  With one Z_c per section, Psi_n'(p) is the marginal
// price rho*(p), linear between the breakpoints of PriceCurve
// (core/water_filling.h).  One solver walks either curve: it binary-searches
// the breakpoints for the segment holding F''s sign change (at a breakpoint
// the price is known, no fill to find), splits a one-cost segment at the
// overload hinge, then runs a safeguarded Illinois secant on the ratio form
// 1 - Psi'(p) / U'(p).  That form has F''s sign wherever U' > 0 and, for the
// paper's log U and quadratic V, is a quadratic in p; while the bracket
// reaches past a satiation point (U' <= 0) it interpolates F' itself.  The
// row is then filled at p* on the same curve.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "core/cost.h"
#include "core/satisfaction.h"
#include "core/water_filling.h"

namespace olev::core {

struct BestResponse {
  double p_star = 0.0;          ///< optimal total request
  WaterFillResult allocation;   ///< water-filled row at p_star
  double payment = 0.0;         ///< Psi_n(p_star)
  double utility = 0.0;         ///< F_n(p_star) = U_n - Psi_n
  /// F' evaluations of an interior solve (breakpoint tests plus secant
  /// steps); 0 for a corner.
  int iterations = 0;
  enum class Case { kCornerZero, kCornerCap, kInterior } kind = Case::kInterior;
};

/// Solves Lemma IV.3 for one player.  `p_max` is P_OLEV_n (Eq. 2-3);
/// `others_load` is b.  Requires a strictly convex section cost.
[[nodiscard]] BestResponse best_response(const Satisfaction& u, const SectionCost& z,
                                         std::span<const double> others_load,
                                         Kilowatts p_max);

/// Variant against a pre-sorted b, sorted once by the caller.  Bit-identical
/// to the span overload (which delegates here).
[[nodiscard]] BestResponse best_response(const Satisfaction& u, const SectionCost& z,
                                         const SortedLoads& others_load,
                                         Kilowatts p_max);

/// Allocation-free result of best_response_into: the row (which the caller
/// owns) and the Eq. 9 payment are left out; the BestResponse overloads
/// charge the payment themselves.
struct BestResponseScalars {
  double p_star = 0.0;
  /// lambda* at p_star; rho* at p_star for the PriceCurve overload.
  double level = 0.0;
  int active_sections = 0;
  int iterations = 0;           ///< as BestResponse::iterations
  BestResponse::Case kind = BestResponse::Case::kInterior;
};

/// Real-time core of the solver (util/hot.h): writes the row allocation at
/// p* into `row` (length must equal others_load.size()) and never touches
/// the allocator.  The SortedLoads overload of best_response delegates here,
/// so p* and the row are bit-identical.  It records no telemetry: the
/// best_response overloads observe each call, and a caller that solves in
/// a loop keeps a BestResponseTally.
[[nodiscard]] OLEV_HOT BestResponseScalars best_response_into(
    const Satisfaction& u, const SectionCost& z,
    const SortedLoads& others_load, Kilowatts p_max, std::span<double> row);

/// The same solver for a corridor with one cost per section, against the
/// price curve the caller built from the Z_c and b.  Writes the generalized
/// fill at p* into `row` (length curve.sections()); never allocates.
[[nodiscard]] OLEV_HOT BestResponseScalars best_response_into(
    const Satisfaction& u, const PriceCurve& curve, Kilowatts p_max,
    std::span<double> row);

/// Bucket bounds of the `core.best_response.iterations` histogram.
inline constexpr std::array<double, 8> kIterationBounds = {0,  4,  8,  12,
                                                           16, 24, 32, 48};

/// Plain (non-atomic) tally of `core.best_response.solves` and the
/// `core.best_response.iterations` buckets, for a caller that solves in a
/// loop: add() per solve costs a few register ops, and flush() adds the
/// tally to the obs registry in one go and zeroes it.
class BestResponseTally {
 public:
  void add(const BestResponseScalars& response) {
    const double iterations = static_cast<double>(response.iterations);
    const auto bucket = std::ranges::lower_bound(kIterationBounds, iterations);
    ++counts_[static_cast<std::size_t>(bucket - kIterationBounds.begin())];
    iteration_sum_ += static_cast<std::uint64_t>(response.iterations);
  }
  void flush();

 private:
  std::array<std::uint64_t, kIterationBounds.size() + 1> counts_{};
  std::uint64_t iteration_sum_ = 0;
};

/// F'_n(p): marginal utility of requesting one more unit of power.
[[nodiscard]] double utility_derivative(const Satisfaction& u, const SectionCost& z,
                                        std::span<const double> others_load,
                                        Kilowatts p);

}  // namespace olev::core
