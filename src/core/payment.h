// The nonlinear pricing policy's payment machinery (Section IV-C).
//
//   Y_{n,c}(p) = Z(b_c + p_{n,c})                       (Eq. 8)
//   xi_n(p_-n, p_n) = sum_c [Y_{n,c}(p) - Y_{n,c}(0)]   (Eq. 9, externality)
//   Psi_n(p_n) = xi_n(p_-n, p_hat_n(p_n))               (Eq. 16)
//
// where p_hat_n(p_n) is the cost-minimizing (water-filled) split of the
// scalar request p_n.  Psi_n is the *power payment function* the smart grid
// announces to OLEV n; it is unbiased (Psi_n(0) = 0), strictly convex and
// increasing, and its derivative has the closed form Psi_n'(p_n) =
// Z'(lambda*(p_n)) by the envelope theorem -- the identity the best-response
// solver exploits.
#pragma once

#include <span>

#include "core/cost.h"
#include "core/water_filling.h"

namespace olev::core {

/// xi_n for an explicit row allocation (Eq. 9).  Returns $/h in raw Rep
/// (Psi_n is a payment *rate*: the row is sustained power in kW).
[[nodiscard]] double externality_payment(const SectionCost& z,
                                         std::span<const double> others_load,
                                         std::span<const double> row);

/// xi_n on a corridor with one cost per section: section c is charged
/// through section_costs[c].  Bit-identical to the one-cost overload when
/// every entry points at the same cost.
[[nodiscard]] double externality_payment(
    std::span<const SectionCost* const> section_costs,
    std::span<const double> others_load, std::span<const double> row);

/// The announced payment function Psi_n evaluated at a scalar request:
/// water-fills `total` against `others_load`, then charges the externality.
[[nodiscard]] double payment_of_total(const SectionCost& z,
                                      std::span<const double> others_load,
                                      Kilowatts total);

/// Psi_n'(total) = Z'(lambda*(total)) (envelope theorem).  For total = 0 the
/// right derivative Z'(min_c b_c) is returned.
[[nodiscard]] double payment_derivative(const SectionCost& z,
                                        std::span<const double> others_load,
                                        Kilowatts total);

/// Convenience bundle when both the value and the allocation are needed.
struct PaymentQuote {
  double payment = 0.0;
  WaterFillResult allocation;
};
[[nodiscard]] PaymentQuote quote_payment(const SectionCost& z,
                                         std::span<const double> others_load,
                                         Kilowatts total);

}  // namespace olev::core
