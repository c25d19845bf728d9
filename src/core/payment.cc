#include "core/payment.h"

#include <string>

#include "obs/obs.h"
#include "util/audit.h"
#include "util/hot.h"

namespace olev::core {

// Real-time wall manifest: the externality charge of Eq. 9 runs on every
// engine quote (and every Game update in audit builds).  The payment_*
// helpers are not rooted: they water-fill, which legitimately allocates.
OLEV_HOT_ROOT("olev::core::externality_payment");

#if OLEV_OBS_ENABLED
namespace {
// Eager handle: a function-local static would put __cxa_guard_acquire and
// the registry lock on the hot path.
obs::Counter& g_obs_evaluations =
    obs::Registry::instance().counter("core.payment.evaluations");
}  // namespace
#endif

namespace {

// Eq. 9 with section c charged through cost_of(c).
template <typename CostOf>
double charge(CostOf cost_of, std::span<const double> others_load,
              std::span<const double> row) {
  if (others_load.size() != row.size()) {
    util::hot_fail_invalid_argument("externality_payment: length mismatch");
  }
  OLEV_OBS_ONLY(g_obs_evaluations.add(1);)
  double payment = 0.0;
  for (std::size_t c = 0; c < row.size(); ++c) {
    OLEV_AUDIT_FINITE(others_load[c], "externality_payment: b[" +
                                         std::to_string(c) + "]");
    OLEV_AUDIT_FINITE(row[c],
                      "externality_payment: row[" + std::to_string(c) + "]");
    const SectionCost& z = cost_of(c);
    payment += z.value(others_load[c] + row[c]) - z.value(others_load[c]);
  }
  OLEV_AUDIT_FINITE(payment, "externality_payment: xi_n");
  return payment;
}

}  // namespace

double externality_payment(const SectionCost& z,
                           std::span<const double> others_load,
                           std::span<const double> row) {
  return charge([&z](std::size_t) -> const SectionCost& { return z; },
                others_load, row);
}

double externality_payment(std::span<const SectionCost* const> section_costs,
                           std::span<const double> others_load,
                           std::span<const double> row) {
  if (section_costs.size() != row.size()) {
    util::hot_fail_invalid_argument("externality_payment: length mismatch");
  }
  return charge(
      [section_costs](std::size_t c) -> const SectionCost& {
        return *section_costs[c];
      },
      others_load, row);
}

double payment_of_total(const SectionCost& z,
                        std::span<const double> others_load, Kilowatts total) {
  const WaterFillResult allocation = water_fill(others_load, total);
  return externality_payment(z, others_load, allocation.row);
}

double payment_derivative(const SectionCost& z,
                          std::span<const double> others_load, Kilowatts total) {
  const WaterFillResult allocation = water_fill(others_load, total);
  return z.derivative(allocation.level);
}

PaymentQuote quote_payment(const SectionCost& z,
                           std::span<const double> others_load, Kilowatts total) {
  PaymentQuote quote;
  quote.allocation = water_fill(others_load, total);
  quote.payment = externality_payment(z, others_load, quote.allocation.row);
  return quote;
}

}  // namespace olev::core
