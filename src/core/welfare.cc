#include "core/welfare.h"

#include <algorithm>
#include <stdexcept>

#include "util/stats.h"

namespace olev::core {

double social_welfare(std::span<const std::unique_ptr<Satisfaction>> players,
                      const SectionCost& z, const PowerSchedule& schedule) {
  if (players.size() != schedule.players()) {
    throw std::invalid_argument("social_welfare: player count mismatch");
  }
  double welfare = 0.0;
  for (std::size_t n = 0; n < players.size(); ++n) {
    welfare += players[n]->value(schedule.row_total(n));
  }
  const double idle_cost = z.value(0.0);
  for (double load : schedule.column_totals()) {
    welfare -= z.value(load) - idle_cost;
  }
  return welfare;
}

CongestionReport congestion_report(const PowerSchedule& schedule,
                                   util::Kilowatts p_line) {
  const std::vector<double> loads = schedule.column_totals();
  return congestion_report(std::span<const double>(loads), p_line);
}

CongestionReport congestion_report(std::span<const double> section_loads,
                                   util::Kilowatts p_line) {
  const double p_line_kw = p_line.value();
  if (p_line_kw <= 0.0) {
    throw std::invalid_argument("congestion_report: p_line must be positive");
  }
  CongestionReport report;
  report.per_section.assign(section_loads.begin(), section_loads.end());
  for (double& load : report.per_section) load /= p_line_kw;
  if (!report.per_section.empty()) {
    report.mean = util::mean_of(report.per_section);
    report.max =
        *std::max_element(report.per_section.begin(), report.per_section.end());
  }
  report.jain_fairness = util::jain_fairness(report.per_section);
  return report;
}

}  // namespace olev::core
