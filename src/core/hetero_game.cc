#include "core/hetero_game.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace olev::core {

HeteroGame::HeteroGame(std::vector<PlayerSpec> players,
                       std::vector<SectionCost> costs,
                       std::vector<double> p_lines_kw, GameConfig config)
    : players_(std::move(players)),
      costs_(std::move(costs)),
      p_lines_kw_(std::move(p_lines_kw)),
      config_(config),
      schedule_(players_.size(), costs_.size()),
      column_totals_(costs_.size(), 0.0),
      rng_(config.seed) {
  if (players_.empty()) throw std::invalid_argument("HeteroGame: need players");
  if (costs_.empty() || costs_.size() != p_lines_kw_.size()) {
    throw std::invalid_argument("HeteroGame: costs/p_lines mismatch or empty");
  }
  for (const SectionCost& cost : costs_) {
    if (!cost.strictly_convex()) {
      throw std::invalid_argument("HeteroGame: sections must be strictly convex");
    }
  }
  for (const PlayerSpec& player : players_) {
    if (player.satisfaction == nullptr || player.p_max.value() < 0.0) {
      throw std::invalid_argument("HeteroGame: bad player spec");
    }
    if (!player.allowed_sections.empty()) {
      throw std::invalid_argument(
          "HeteroGame: path masks are not supported here (use Game)");
    }
  }
  cost_pointers_.reserve(costs_.size());
  for (const SectionCost& cost : costs_) cost_pointers_.push_back(&cost);
}

std::vector<double> HeteroGame::others_load(std::size_t player) const {
  std::vector<double> others = column_totals_;
  const auto own = schedule_.row(player);
  for (std::size_t c = 0; c < others.size(); ++c) {
    others[c] = std::max(0.0, others[c] - own[c]);
  }
  return others;
}

double HeteroGame::update_player(std::size_t player) {
  if (player >= players_.size()) throw std::out_of_range("HeteroGame");
  const auto others = others_load(player);
  const double previous = schedule_.row_total(player);
  const Satisfaction& u = *players_[player].satisfaction;
  const double p_max = players_[player].p_max.value();

  // The best response is solved in price space.  The generalized fill at
  // marginal price rho takes D(rho) = sum_c [(Z_c')^{-1}(rho) - b_c]^+, which
  // rises in rho, while the player wants (U')^{-1}(rho), which falls; they
  // meet at rho* = Psi'(p*) = U'(p*).
  auto volume_at = [&](double rho) {
    double volume = 0.0;
    for (std::size_t c = 0; c < costs_.size(); ++c) {
      volume += std::max(0.0, costs_[c].derivative_inverse(rho) - others[c]);
    }
    return volume;
  };
  // rho*(0) = Psi'(0): the cheapest section's marginal price at b.
  double rho_zero = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < costs_.size(); ++c) {
    rho_zero = std::min(rho_zero, costs_[c].derivative(others[c]));
  }

  double p_star;
  const double u_zero = u.derivative(0.0);
  const double u_cap = u.derivative(p_max);
  if (p_max <= 0.0 || u_zero <= rho_zero) {
    p_star = 0.0;
  } else if (volume_at(u_cap) >= p_max) {
    // Psi'(p_max) <= U'(p_max): the fill at U'(p_max) already holds p_max.
    p_star = p_max;
  } else {
    // D - (U')^{-1} is negative at lo (D(rho_zero) = 0, or (U')^{-1} = p_max
    // above D at U'(p_max)) and positive at hi ((U')^{-1}(U'(0)) = 0).
    double lo = std::max(rho_zero, u_cap);
    double hi = u_zero;
    for (int it = 0; it < 200 && hi - lo > 1e-13 * hi; ++it) {
      const double mid = 0.5 * (lo + hi);
      if (volume_at(mid) < u.derivative_inverse(mid)) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    p_star = std::clamp(u.derivative_inverse(0.5 * (lo + hi)), 0.0, p_max);
  }

  const GeneralizedFillResult fill =
      generalized_fill(cost_pointers_, others, util::kw(p_star));
  schedule_.set_row(player, fill.row);
  for (std::size_t c = 0; c < column_totals_.size(); ++c) {
    column_totals_[c] = others[c] + fill.row[c];
  }
  return std::abs(p_star - previous);
}

HeteroGameResult HeteroGame::run() {
  schedule_ = PowerSchedule(players_.size(), costs_.size());
  column_totals_.assign(costs_.size(), 0.0);
  cursor_ = 0;

  double cycle_max_delta = 0.0;
  bool converged = false;
  std::size_t updates = 0;
  // Same coverage-based convergence window as Game: close it only after
  // every player has been updated at least once.
  std::vector<bool> touched(players_.size(), false);
  std::size_t touched_count = 0;
  while (updates < config_.max_updates) {
    std::size_t player;
    if (config_.order == UpdateOrder::kRoundRobin) {
      player = cursor_;
      cursor_ = (cursor_ + 1) % players_.size();
    } else {
      player = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(players_.size()) - 1));
    }
    cycle_max_delta = std::max(cycle_max_delta, update_player(player));
    ++updates;
    if (!touched[player]) {
      touched[player] = true;
      ++touched_count;
    }
    if (touched_count == players_.size()) {
      if (cycle_max_delta < config_.epsilon) {
        converged = true;
        break;
      }
      cycle_max_delta = 0.0;
      std::fill(touched.begin(), touched.end(), false);
      touched_count = 0;
    }
  }

  HeteroGameResult result;
  result.schedule = schedule_;
  result.converged = converged;
  result.updates = updates;
  // One fold of the column totals for every payment and the welfare (same
  // arithmetic as Game::finalize): O(N * C) in all.
  const std::vector<double> loads = schedule_.column_totals();
  for (std::size_t n = 0; n < players_.size(); ++n) {
    const double request = schedule_.row_total(n);
    result.requests.push_back(request);
    double payment = 0.0;
    for (std::size_t c = 0; c < costs_.size(); ++c) {
      const double own = schedule_.at(n, c);
      const double others = std::max(0.0, loads[c] - own);
      payment += costs_[c].value(others + own) - costs_[c].value(others);
    }
    result.payments.push_back(payment);
    result.welfare += players_[n].satisfaction->value(request);
  }
  for (std::size_t c = 0; c < costs_.size(); ++c) {
    result.welfare -= costs_[c].value(loads[c]) - costs_[c].value(0.0);
    result.marginal_prices.push_back(costs_[c].derivative(loads[c]));
  }
  return result;
}

}  // namespace olev::core
