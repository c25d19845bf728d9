// Social welfare (Eq. 7) and congestion-degree metrics.
//
//   W(p) = sum_n U_n(p_n) - sum_c Z(P_c)
//
// Congestion degree of section c is P_c / P_line (Section IV-B); the
// evaluation tracks its mean across sections as the game iterates
// (Figs. 5(d)/6(d)) and sweeps a *desired* degree by scaling demand
// (Figs. 5(a)/6(a)).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/cost.h"
#include "core/satisfaction.h"
#include "core/schedule.h"
#include "util/quantity.h"

namespace olev::core {

/// W(p) for a full schedule.  `players` must have schedule.players()
/// entries.  The cost term is the *incremental* cost Z(P_c) - Z(0): V may
/// carry a fixed standing charge (the paper's nonlinear V has V(0) =
/// beta alpha^2 > 0), and counting it per section would penalize idle
/// capacity; all optimizers are unaffected by the constant shift.
double social_welfare(std::span<const std::unique_ptr<Satisfaction>> players,
                      const SectionCost& z, const PowerSchedule& schedule);

struct CongestionReport {
  std::vector<double> per_section;  ///< P_c / P_line
  double mean = 0.0;
  double max = 0.0;
  double jain_fairness = 1.0;       ///< balance of the per-section loads
};

/// Congestion degrees for a schedule given the raw line capacity P_line
/// (NOT the eta-discounted cap; the paper normalizes by total capacity).
[[nodiscard]] CongestionReport congestion_report(const PowerSchedule& schedule,
                                                util::Kilowatts p_line);

/// Same report for a bare per-section load vector (kW) -- the mean-field
/// engine carries the aggregate field, not an N x C schedule.
[[nodiscard]] CongestionReport congestion_report(
    std::span<const double> section_loads, util::Kilowatts p_line);

/// Same report when each section has its own P_line (kW, one per load): a
/// heterogeneous corridor's degree of section c is P_c / P_line_c.
[[nodiscard]] CongestionReport congestion_report(
    std::span<const double> section_loads, std::span<const double> p_lines_kw);

}  // namespace olev::core
