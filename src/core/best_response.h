// Lemma IV.3: the optimal power request of OLEV n against the announced
// payment function is
//
//   p* = 0                        if F'(0) < 0
//   p* = P_OLEV_n                 if F'(P_OLEV_n) > 0
//   p* : F'(p*) = 0               otherwise,
//
// with F(p) = U_n(p) - Psi_n(p) strictly concave, so F'(p) = U'_n(p) -
// Z'(lambda*(p)) is strictly decreasing and the interior root is unique.
//
// Lemma IV.1 makes lambda*(p) piecewise linear: with the loads sorted,
// s_0 <= ... <= s_{C-1}, and S_k = s_0 + ... + s_{k-1}, the level is
// lambda = (p + S_k) / k while k sections are loaded, i.e. for p between the
// breakpoints q_{k-1} and q_k = k * s_k - S_k.  The solver binary-searches
// the breakpoints for the segment holding the sign change of F' (the test at
// q_k is U'(q_k) - Z'(s_k), no water level to find), then runs a safeguarded
// Illinois secant on that one segment, where the level needs no search.  The
// secant works on the ratio form 1 - Z'(lambda(p)) / U'(p), which has F''s
// sign wherever U' > 0 and, for the paper's log U and quadratic V, is a
// quadratic in p; while the bracket reaches past a satiation point (U' <= 0)
// it interpolates F' itself.  The row allocation is then re-derived by
// water-filling at p*.
#pragma once

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
  double level = 0.0;           ///< lambda* at p_star
  int active_sections = 0;
  int iterations = 0;           ///< as BestResponse::iterations
  BestResponse::Case kind = BestResponse::Case::kInterior;
};

/// Real-time core of the solver (util/hot.h): writes the row allocation at
/// p* into `row` (length must equal others_load.size()) and never touches
/// the allocator.  The SortedLoads overload of best_response delegates here,
/// so p* and the row are bit-identical.
[[nodiscard]] OLEV_HOT BestResponseScalars best_response_into(
    const Satisfaction& u, const SectionCost& z,
    const SortedLoads& others_load, Kilowatts p_max, std::span<double> row);

/// F'_n(p): marginal utility of requesting one more unit of power.
[[nodiscard]] double utility_derivative(const Satisfaction& u, const SectionCost& z,
                                        std::span<const double> others_load,
                                        Kilowatts p);
[[nodiscard]] double utility_derivative(const Satisfaction& u, const SectionCost& z,
                                        const SortedLoads& others_load,
                                        Kilowatts p);

}  // namespace olev::core
