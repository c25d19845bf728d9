#include "core/game.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/payment.h"
#include "obs/obs.h"
#include "util/audit.h"
#include "util/hot.h"
#include "util/rng.h"

namespace olev::core {

// Real-time wall manifest (tools/olev_rtcheck.py).  update_player / step are
// the per-vehicle serving quantum: everything below them runs out of the
// pre-sized arenas.  The vcall allowance covers satisfaction / pricing
// dispatch whose concrete overrides are themselves registered hot roots
// (core/satisfaction.cc, core/cost.cc).
OLEV_HOT_ROOT("olev::core::Game::update_player");
OLEV_HOT_ROOT("olev::core::Game::step");
OLEV_RT_VCALL_OK("olev::core::Game::update_greedy",
                 "Satisfaction/CostPolicy dispatch; every override is a "
                 "registered hot root");

Game::Game(std::vector<PlayerSpec> players, SectionCost cost,
           std::size_t sections, util::Kilowatts p_line, GameConfig config)
    : players_(std::move(players)),
      sections_(sections),
      p_lines_kw_(sections, p_line.value()),
      config_(config),
      schedule_(players_.size(), sections),
      column_totals_(sections, 0.0),
      rng_(config.seed) {
  costs_.push_back(std::move(cost));
  build();
}

Game::Game(std::vector<PlayerSpec> players, std::vector<SectionCost> costs,
           std::vector<double> p_lines_kw, GameConfig config)
    : players_(std::move(players)),
      costs_(std::move(costs)),
      sections_(p_lines_kw.size()),
      p_lines_kw_(std::move(p_lines_kw)),
      config_(config),
      schedule_(players_.size(), sections_),
      column_totals_(sections_, 0.0),
      rng_(config.seed) {
  if (costs_.size() != sections_) {
    throw std::invalid_argument("Game: need one cost per section");
  }
  for (const SectionCost& cost : costs_) {
    if (!cost.pricing().strictly_convex()) {
      throw std::invalid_argument(
          "Game: per-section costs must be strictly convex");
    }
  }
  if (config_.scheduler != SchedulerKind::kWaterFilling) {
    throw std::invalid_argument(
        "Game: the greedy scheduler needs one cost for every section");
  }
  for (const PlayerSpec& player : players_) {
    if (!player.allowed_sections.empty()) {
      throw std::invalid_argument(
          "Game: path masks need one cost for every section");
    }
  }
  build();
}

void Game::build() {
  if (players_.empty()) throw std::invalid_argument("Game: need at least one player");
  if (sections_ == 0) throw std::invalid_argument("Game: need at least one section");
  for (double p_line : p_lines_kw_) {
    if (p_line <= 0.0) {
      throw std::invalid_argument("Game: p_line must be positive");
    }
  }
  for (const PlayerSpec& player : players_) {
    if (player.satisfaction == nullptr) {
      throw std::invalid_argument("Game: player without satisfaction function");
    }
    if (player.p_max.value() < 0.0)
      throw std::invalid_argument("Game: negative p_max");
    if (!player.allowed_sections.empty()) {
      if (player.allowed_sections.size() != sections_) {
        throw std::invalid_argument("Game: allowed_sections length mismatch");
      }
      if (std::none_of(player.allowed_sections.begin(),
                       player.allowed_sections.end(),
                       [](bool allowed) { return allowed; }) &&
          player.p_max.value() > 0.0) {
        throw std::invalid_argument(
            "Game: player with positive cap but no admissible section");
      }
    }
  }
  section_costs_.reserve(sections_);
  idle_costs_.reserve(sections_);
  for (std::size_t c = 0; c < sections_; ++c) {
    section_costs_.push_back(&costs_[costs_.size() == 1 ? 0 : c]);
    idle_costs_.push_back(section_costs_[c]->value(0.0));
  }
  // The schedule starts at zero, and so do its totals.
  row_totals_.assign(players_.size(), 0.0);
  // Hot-path arenas: sized once here so update_player never allocates.
  scratch_others_.assign(sections_, 0.0);
  scratch_row_.assign(sections_, 0.0);
  scratch_subset_.assign(sections_, 0.0);
  scratch_positions_.assign(sections_, 0);
  scratch_subrow_.assign(sections_, 0.0);
  scratch_sorted_.reserve(sections_);
  if (costs_.size() > 1) scratch_curve_.reserve(sections_);
}

void Game::others_load_into(std::size_t player, std::span<double> out) const {
  const auto own = schedule_.row(player);
  for (std::size_t c = 0; c < sections_; ++c) {
    out[c] = std::max(0.0, column_totals_[c] - own[c]);
  }
}

void Game::commit_row(std::size_t player, std::span<const double> others,
                      std::span<const double> row) {
  schedule_.set_row(player, row);
  // Same summation order as PowerSchedule::row_total so the cached value is
  // bit-identical to a recomputation.
  double row_total = 0.0;
  for (double v : row) row_total += v;
  row_totals_[player] = row_total;
  std::size_t refreshes = 0;
  for (std::size_t c = 0; c < sections_; ++c) {
    const double updated = others[c] + row[c];
    if (updated != column_totals_[c]) ++refreshes;
    column_totals_[c] = updated;
  }
  caches_.section_cost_reuses += sections_ - refreshes;
  caches_.section_cost_refreshes += refreshes;

#if OLEV_AUDIT_ENABLED
  // Cache-coherence audit: every incrementally maintained total must match
  // a from-scratch recompute.  A row total is the same fold as the
  // schedule's and must match to the bit; the column totals are kept as
  // others + row, so they only agree with a fresh fold-left sum to
  // rounding (1e-9 relative catches any stale cell, which would be off by
  // a whole allocation, not an ulp).
  {
    namespace audit = util::audit;
    for (std::size_t c = 0; c < sections_; ++c) {
      OLEV_AUDIT_FINITE(column_totals_[c],
                        "commit_row: column total " + std::to_string(c));
      OLEV_AUDIT_CHECK(
          audit::close(column_totals_[c], schedule_.column_total(c), 1e-9),
          "commit_row: cached column total " + std::to_string(c) + " = " +
              std::to_string(column_totals_[c]) + " drifted from schedule " +
              std::to_string(schedule_.column_total(c)));
    }
    for (std::size_t n = 0; n < players_.size(); ++n) {
      OLEV_AUDIT_CHECK(row_totals_[n] == schedule_.row_total(n),
                       "commit_row: stale row total for player " +
                           std::to_string(n));
    }
  }
#endif
}

double Game::update_waterfill(std::size_t player,
                              std::span<const double> others) {
  const double previous = row_totals_[player];
  const auto& mask = players_[player].allowed_sections;

  if (mask.empty()) {
    scratch_sorted_.reassign(others);
    std::span<double> row{scratch_row_.data(), sections_};
    const BestResponseScalars response =
        best_response_into(*players_[player].satisfaction, costs_.front(),
                           scratch_sorted_, players_[player].p_max, row);
    OLEV_OBS_ONLY(tally_.add(response);)
#if OLEV_AUDIT_ENABLED
    // Eq. 8-9: the externality payment of a non-negative allocation against
    // a nondecreasing Z is non-negative (VCG individual rationality).  Only
    // the audit reads the payment, so only the audit pays for it.
    const double payment = externality_payment(section_costs_, others, row);
    OLEV_AUDIT_FINITE(payment, "update_waterfill: payment");
    OLEV_AUDIT_CHECK(payment >= -1e-9,
                     "update_waterfill: negative externality payment " +
                         std::to_string(payment) + " for player " +
                         std::to_string(player));
#endif
    OLEV_AUDIT_CHECK(response.p_star >= 0.0 &&
                         response.p_star <= players_[player].p_max.value() + 1e-12,
                     "update_waterfill: best response " +
                         std::to_string(response.p_star) +
                         " outside [0, p_max]");
    commit_row(player, others, row);
    return std::abs(response.p_star - previous);
  }

  // Path-restricted player: the best response lives on the admissible
  // subset of sections (Lemma IV.1/IV.3 verbatim on the subvector of b).
  std::size_t admissible = 0;
  for (std::size_t c = 0; c < sections_; ++c) {
    if (mask[c]) {
      scratch_subset_[admissible] = others[c];
      scratch_positions_[admissible] = c;
      ++admissible;
    }
  }
  for (std::size_t c = 0; c < sections_; ++c) scratch_row_[c] = 0.0;
  double p_star = 0.0;
  if (admissible > 0) {
    scratch_sorted_.reassign({scratch_subset_.data(), admissible});
    std::span<double> subrow{scratch_subrow_.data(), admissible};
    const BestResponseScalars response =
        best_response_into(*players_[player].satisfaction, costs_.front(),
                           scratch_sorted_, players_[player].p_max, subrow);
    OLEV_OBS_ONLY(tally_.add(response);)
    p_star = response.p_star;
    for (std::size_t i = 0; i < admissible; ++i) {
      scratch_row_[scratch_positions_[i]] = subrow[i];
    }
  }
  commit_row(player, others, scratch_row_);
  return std::abs(p_star - previous);
}

double Game::update_per_section(std::size_t player,
                                std::span<const double> others) {
  const double previous = row_totals_[player];
  scratch_curve_.reassign(section_costs_, others);
  std::span<double> row{scratch_row_.data(), sections_};
  const BestResponseScalars response =
      best_response_into(*players_[player].satisfaction, scratch_curve_,
                         players_[player].p_max, row);
  OLEV_OBS_ONLY(tally_.add(response);)
#if OLEV_AUDIT_ENABLED
  const double payment = externality_payment(section_costs_, others, row);
  OLEV_AUDIT_FINITE(payment, "update_per_section: payment");
  OLEV_AUDIT_CHECK(payment >= -1e-9,
                   "update_per_section: negative externality payment " +
                       std::to_string(payment) + " for player " +
                       std::to_string(player));
#endif
  commit_row(player, others, row);
  return std::abs(response.p_star - previous);
}

double Game::update_greedy(std::size_t player,
                           std::span<const double> others) {
  // Linear-pricing baseline.  Psi_n(p) = beta * p regardless of the split,
  // so the scalar best response solves U'(p) = beta directly -- the closed
  // form (U')^-1(beta), capped at p_max -- and the grid then fills sections
  // in index order up to the safety cap (no balancing incentive exists under
  // a flat unit price).
  const double beta = costs_.front().pricing().derivative(0.0);
  const double p_max = players_[player].p_max.value();
  const double p_star =
      beta > 0.0
          ? std::min(players_[player].satisfaction->derivative_inverse(beta),
                     p_max)
          : p_max;

  // Each OLEV charges where it happens to be: fill sections starting at a
  // stable per-vehicle offset (its position along the lane), wrapping
  // forward, with no attempt to balance across sections.
  const std::size_t offset = static_cast<std::size_t>(
      util::derive_seed(config_.seed, player) % sections_);
  for (std::size_t c = 0; c < sections_; ++c) scratch_row_[c] = 0.0;
  double remaining = p_star;
  for (std::size_t k = 0; k < sections_ && remaining > 0.0; ++k) {
    const std::size_t c = (offset + k) % sections_;
    const double room = std::max(0.0, costs_.front().cap_kw() - others[c]);
    const double take = std::min(room, remaining);
    scratch_row_[c] = take;
    remaining -= take;
  }
  // Demand beyond all caps spills onto the entry section (the baseline has
  // no congestion disincentive; overload simply happens).
  if (remaining > 0.0) scratch_row_[offset] += remaining;

  const double previous = row_totals_[player];
  commit_row(player, others, scratch_row_);
  return std::abs(p_star - previous);
}

double Game::update_player(std::size_t player) {
  // Bounds check precedes the hot region: constructing the exception is
  // itself an allocation, sanctioned only through the cold-fail funnel.
  if (player >= players_.size()) {
    util::hot_fail_out_of_range("Game::update_player");
  }
  OLEV_HOT_REGION("core.game.update");
  std::span<double> others{scratch_others_.data(), sections_};
  others_load_into(player, others);
  if (costs_.size() > 1) return update_per_section(player, others);
  return config_.scheduler == SchedulerKind::kWaterFilling
             ? update_waterfill(player, others)
             : update_greedy(player, others);
}

std::size_t Game::pick_player() {
  if (config_.order == UpdateOrder::kRoundRobin) {
    const std::size_t player = cursor_;
    cursor_ = (cursor_ + 1) % players_.size();
    return player;
  }
  return static_cast<std::size_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(players_.size()) - 1));
}

double Game::step() { return update_player(pick_player()); }

double Game::current_welfare() const {
  double welfare = 0.0;
  for (std::size_t n = 0; n < players_.size(); ++n) {
    welfare += players_[n].satisfaction->value(row_totals_[n]);
  }
  for (std::size_t c = 0; c < sections_; ++c) {
    welfare -= section_costs_[c]->value(column_totals_[c]) - idle_costs_[c];
  }
  return welfare;
}

CongestionReport Game::current_congestion() const {
  return congestion_report(column_totals_, p_lines_kw_);
}

GameResult Game::run(bool warm_start) {
  OLEV_OBS_SPAN(run_span, "game.run", "solver");
  if (!warm_start) {
    // Cold start: zero the schedule and its totals in place.
    for (std::size_t n = 0; n < players_.size(); ++n) schedule_.zero_row(n);
    std::fill(column_totals_.begin(), column_totals_.end(), 0.0);
    std::fill(row_totals_.begin(), row_totals_.end(), 0.0);
    cursor_ = 0;
    caches_ = CacheCounters{};
  }

  std::vector<UpdateMetrics> trajectory;
  double cycle_max_delta = 0.0;
  bool converged = false;
  std::size_t updates = 0;
  // A convergence window closes only once EVERY player has been updated in
  // it -- with uniform-random order a fixed-length window can miss players
  // and a small max-delta would be meaningless.
  std::vector<bool> touched(players_.size(), false);
  std::size_t touched_count = 0;
  // Theorem IV.1: under the nonlinear policy W is an exact potential for
  // the asynchronous game (per-section corridors included), so every
  // best-response update is a weak ascent step.  The greedy baseline has no
  // such guarantee (linear pricing never internalizes the overload cost), so
  // the audit only arms for the water-filling scheduler.
  OLEV_AUDIT_ONLY(double audit_welfare = current_welfare();)
  OLEV_OBS_ONLY(const bool fine = obs::Tracer::instance().fine_enabled();)

  while (updates < config_.max_updates) {
    const std::size_t player = pick_player();
    const double previous = row_totals_[player];
    // Fine detail only: one span per player update swamps a phase trace.
    OLEV_OBS_FINE_SPAN(update_span, fine, "game.update", "solver");
    const double delta = update_player(player);
    ++updates;

#if OLEV_AUDIT_ENABLED
    if (config_.scheduler == SchedulerKind::kWaterFilling) {
      const double welfare_now = current_welfare();
      OLEV_AUDIT_FINITE(welfare_now, "Game::run: welfare");
      OLEV_AUDIT_CHECK(
          welfare_now >=
              audit_welfare - 1e-6 * std::max(1.0, std::abs(audit_welfare)),
          "Game::run: welfare decreased on update " + std::to_string(updates) +
              " (player " + std::to_string(player) + "): " +
              std::to_string(audit_welfare) + " -> " +
              std::to_string(welfare_now));
      audit_welfare = welfare_now;
    }
#endif
    cycle_max_delta = std::max(cycle_max_delta, delta);
    if (!touched[player]) {
      touched[player] = true;
      ++touched_count;
    }

    if (config_.record_trajectory) {
      UpdateMetrics metrics;
      metrics.update = updates;
      metrics.player = player;
      metrics.request = row_totals_[player];
      metrics.request_delta = std::abs(metrics.request - previous);
      metrics.welfare = current_welfare();
      metrics.mean_congestion = current_congestion().mean;
      metrics.caches = caches_;
      trajectory.push_back(metrics);
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

  OLEV_OBS_ONLY(tally_.flush();)
  OLEV_OBS_COUNTER(obs_runs, "core.game.runs");
  OLEV_OBS_ADD(obs_runs, 1);
  OLEV_OBS_HISTOGRAM(obs_updates, "core.game.updates_per_run",
                     {10, 30, 100, 300, 1000, 3000, 10000, 100000});
  OLEV_OBS_OBSERVE(obs_updates, static_cast<double>(updates));
  OLEV_OBS_SPAN_ARG(run_span, "updates", static_cast<double>(updates));
  OLEV_OBS_SPAN_ARG(run_span, "converged", converged ? 1.0 : 0.0);
  return finalize(converged, updates, std::move(trajectory));
}

GameResult Game::finalize(bool converged, std::size_t updates,
                          std::vector<UpdateMetrics> trajectory) const {
  OLEV_OBS_SPAN(finalize_span, "game.finalize", "solver");
  GameResult result;
  result.schedule = schedule_;
  result.converged = converged;
  result.updates = updates;
  result.trajectory = std::move(trajectory);
  result.caches = caches_;

  // One fold of the column totals serves every payment, the welfare and the
  // congestion report: O(N * C) in all.  b_c = max(0, P_c - p_{n,c}) is the
  // same fold-subtract-clamp PowerSchedule uses for a player's b, so each
  // payment keeps its bits.
  const std::vector<double> loads = schedule_.column_totals();
  std::vector<double> others(sections_);
  double welfare = 0.0;
  result.requests.reserve(players_.size());
  result.payments.reserve(players_.size());
  result.utilities.reserve(players_.size());
  for (std::size_t n = 0; n < players_.size(); ++n) {
    const double request = schedule_.row_total(n);
    result.requests.push_back(request);
    const auto row = schedule_.row(n);
    for (std::size_t c = 0; c < sections_; ++c) {
      others[c] = std::max(0.0, loads[c] - row[c]);
    }
    const double payment = externality_payment(section_costs_, others, row);
    // Eq. 8-9 at the fixed point: every externality payment is finite and
    // non-negative (each OLEV pays exactly the section cost its own load
    // adds; Z nondecreasing + p >= 0 makes that sum >= 0).
    OLEV_AUDIT_FINITE(payment, "finalize: payment of player " +
                                   std::to_string(n));
    OLEV_AUDIT_CHECK(payment >= -1e-9 * std::max(1.0, std::abs(payment)),
                     "finalize: negative externality payment " +
                         std::to_string(payment) + " for player " +
                         std::to_string(n));
    result.payments.push_back(payment);
    const double satisfaction = players_[n].satisfaction->value(request);
    OLEV_AUDIT_FINITE(satisfaction, "finalize: satisfaction of player " +
                                        std::to_string(n));
    result.utilities.push_back(satisfaction - payment);
    welfare += satisfaction;
  }
  for (std::size_t c = 0; c < sections_; ++c) {
    welfare -= section_costs_[c]->value(loads[c]) - idle_costs_[c];
  }
  result.welfare = welfare;
  result.congestion = congestion_report(loads, p_lines_kw_);
  return result;
}

}  // namespace olev::core
