#include "core/stackelberg.h"

#include <algorithm>
#include <stdexcept>

#include "core/welfare.h"
#include "util/solver.h"

namespace olev::core {

double follower_reaction(const Satisfaction& u, util::DollarsPerKwh price_per_kwh,
                         util::Kilowatts p_max_kw) {
  const double price = price_per_kwh.value();
  const double p_max = p_max_kw.value();
  if (p_max <= 0.0) return 0.0;
  // U'(p) = price, U' strictly decreasing: the closed form (U')^-1, which
  // is 0 when the price is too high to buy anything; capped at p_max.
  if (price <= 0.0) return p_max;
  return std::min(u.derivative_inverse(price), p_max);
}

StackelbergResult solve_stackelberg(
    std::span<const std::unique_ptr<Satisfaction>> players,
    std::span<const double> p_max, const SectionCost& z, std::size_t sections,
    const StackelbergOptions& options) {
  if (players.size() != p_max.size()) {
    throw std::invalid_argument("solve_stackelberg: players/p_max mismatch");
  }
  if (players.empty() || sections == 0) {
    throw std::invalid_argument("solve_stackelberg: need players and sections");
  }

  double price_cap = options.price_cap;
  if (price_cap <= 0.0) {
    for (const auto& player : players) {
      price_cap = std::max(price_cap, player->derivative(0.0));
    }
  }

  auto total_demand = [&](double price) {
    double demand = 0.0;
    for (std::size_t n = 0; n < players.size(); ++n) {
      demand += follower_reaction(*players[n], util::DollarsPerKwh{price},
                                  util::Kilowatts{p_max[n]});
    }
    return demand;
  };
  auto revenue = [&](double price) { return price * total_demand(price); };

  util::SolverOptions solver_options;
  solver_options.x_tolerance = options.tolerance;
  solver_options.max_iterations = options.max_iterations;
  const util::SolverResult best = util::golden_section_max(
      revenue, options.price_floor, price_cap, solver_options);

  StackelbergResult result;
  result.price = best.x;
  result.requests.reserve(players.size());
  for (std::size_t n = 0; n < players.size(); ++n) {
    result.requests.push_back(
        follower_reaction(*players[n], util::DollarsPerKwh{result.price},
                          util::Kilowatts{p_max[n]}));
    result.total_power += result.requests.back();
  }
  result.revenue = result.price * result.total_power;

  // Spread each follower's demand evenly over the sections (charitable to
  // the baseline: any other fixed split only worsens its welfare).
  result.schedule = PowerSchedule(players.size(), sections);
  for (std::size_t n = 0; n < players.size(); ++n) {
    const double share = result.requests[n] / static_cast<double>(sections);
    for (std::size_t c = 0; c < sections; ++c) result.schedule.set(n, c, share);
  }
  result.welfare = social_welfare(players, z, result.schedule);
  return result;
}

}  // namespace olev::core
