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
// pre-sized arenas.  The two vcall allowances cover satisfaction / pricing
// dispatch whose concrete overrides are themselves registered hot roots
// (core/satisfaction.cc, core/cost.cc).
OLEV_HOT_ROOT("olev::core::Game::update_player");
OLEV_HOT_ROOT("olev::core::Game::step");
OLEV_RT_VCALL_OK("olev::core::Game::commit_row",
                 "Satisfaction::value dispatch; every override is a "
                 "registered hot root");
OLEV_RT_VCALL_OK("olev::core::Game::update_greedy",
                 "Satisfaction/CostPolicy dispatch; every override is a "
                 "registered hot root");

#if OLEV_OBS_ENABLED
namespace {
// Eagerly-bound obs handles: a function-local static would put
// __cxa_guard_acquire and the registry lock on the hot path.
obs::Counter& g_obs_section_reuses =
    obs::Registry::instance().counter("core.game.section_cost_reuses");
obs::Counter& g_obs_section_refreshes =
    obs::Registry::instance().counter("core.game.section_cost_refreshes");
}  // namespace
#endif

Game::Game(std::vector<PlayerSpec> players, SectionCost cost,
           std::size_t sections, util::Kilowatts p_line, GameConfig config)
    : players_(std::move(players)),
      cost_(std::move(cost)),
      sections_(sections),
      p_line_kw_(p_line.value()),
      config_(config),
      schedule_(players_.size(), sections),
      column_totals_(sections, 0.0),
      rng_(config.seed) {
  if (players_.empty()) throw std::invalid_argument("Game: need at least one player");
  if (sections_ == 0) throw std::invalid_argument("Game: need at least one section");
  if (p_line_kw_ <= 0.0) throw std::invalid_argument("Game: p_line must be positive");
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
  rebuild_caches();
}

void Game::rebuild_caches() {
  column_totals_ = schedule_.column_totals();
  cost_values_.resize(sections_);
  for (std::size_t c = 0; c < sections_; ++c) {
    cost_values_[c] = cost_.value(column_totals_[c]);
  }
  row_totals_.resize(players_.size());
  sat_values_.resize(players_.size());
  for (std::size_t n = 0; n < players_.size(); ++n) {
    row_totals_[n] = schedule_.row_total(n);
    sat_values_[n] = players_[n].satisfaction->value(row_totals_[n]);
  }
  // Hot-path arenas: sized once here so update_player never allocates.
  scratch_others_.assign(sections_, 0.0);
  scratch_row_.assign(sections_, 0.0);
  scratch_subset_.assign(sections_, 0.0);
  scratch_positions_.assign(sections_, 0);
  scratch_subrow_.assign(sections_, 0.0);
  scratch_sorted_.reserve(sections_);
  caches_ = CacheCounters{};
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
  // Tally into locals and flush once below: one registry add per commit
  // instead of one per section keeps the hot loop free of atomics.
  std::size_t reuses = 0;
  std::size_t refreshes = 0;
  for (std::size_t c = 0; c < sections_; ++c) {
    const double updated = others[c] + row[c];
    if (updated == column_totals_[c]) {
      ++reuses;
      continue;
    }
    column_totals_[c] = updated;
    cost_values_[c] = cost_.value(updated);
    ++refreshes;
  }
  caches_.section_cost_reuses += reuses;
  caches_.section_cost_refreshes += refreshes;
  OLEV_OBS_ONLY(g_obs_section_reuses.add(reuses);
                g_obs_section_refreshes.add(refreshes);)
  if (row_total != row_totals_[player]) {
    row_totals_[player] = row_total;
    sat_values_[player] = players_[player].satisfaction->value(row_total);
  }

#if OLEV_AUDIT_ENABLED
  // Cache-coherence audit: every incrementally maintained aggregate must
  // match a from-scratch recompute.  Derived cells (cost of a cached total,
  // satisfaction of a cached row total) are pure functions of cached inputs
  // and must match to the bit; the column totals themselves are maintained
  // by +/- deltas, so they only agree with a fresh fold-left sum to
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
      OLEV_AUDIT_CHECK(
          cost_values_[c] == cost_.value(column_totals_[c]),
          "commit_row: stale cost cell " + std::to_string(c));
    }
    for (std::size_t n = 0; n < players_.size(); ++n) {
      OLEV_AUDIT_CHECK(row_totals_[n] == schedule_.row_total(n),
                       "commit_row: stale row total for player " +
                           std::to_string(n));
      OLEV_AUDIT_CHECK(
          sat_values_[n] == players_[n].satisfaction->value(row_totals_[n]),
          "commit_row: stale satisfaction cell for player " +
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
        best_response_into(*players_[player].satisfaction, cost_,
                           scratch_sorted_, players_[player].p_max, row);
    // Eq. 8-9: the externality payment of a non-negative allocation against
    // a nondecreasing Z is non-negative (VCG individual rationality).
    OLEV_AUDIT_FINITE(response.payment, "update_waterfill: payment");
    OLEV_AUDIT_CHECK(response.payment >= -1e-9,
                     "update_waterfill: negative externality payment " +
                         std::to_string(response.payment) + " for player " +
                         std::to_string(player));
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
        best_response_into(*players_[player].satisfaction, cost_,
                           scratch_sorted_, players_[player].p_max, subrow);
    p_star = response.p_star;
    for (std::size_t i = 0; i < admissible; ++i) {
      scratch_row_[scratch_positions_[i]] = subrow[i];
    }
  }
  commit_row(player, others, scratch_row_);
  return std::abs(p_star - previous);
}

double Game::update_greedy(std::size_t player,
                           std::span<const double> others) {
  // Linear-pricing baseline.  Psi_n(p) = beta * p regardless of the split,
  // so the scalar best response solves U'(p) = beta directly; the grid then
  // fills sections in index order up to the safety cap (no balancing
  // incentive exists under a flat unit price).
  const double beta = cost_.pricing().derivative(0.0);
  const Satisfaction& u = *players_[player].satisfaction;
  const double p_max = players_[player].p_max.value();
  double p_star;
  if (u.derivative(0.0) <= beta) {
    p_star = 0.0;
  } else if (u.derivative(p_max) >= beta) {
    p_star = p_max;
  } else {
    double lo = 0.0;
    double hi = p_max;
    for (int it = 0; it < 200 && hi - lo > 1e-9; ++it) {
      const double mid = 0.5 * (lo + hi);
      if (u.derivative(mid) > beta) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    p_star = 0.5 * (lo + hi);
  }

  // Each OLEV charges where it happens to be: fill sections starting at a
  // stable per-vehicle offset (its position along the lane), wrapping
  // forward, with no attempt to balance across sections.
  const std::size_t offset = static_cast<std::size_t>(
      util::derive_seed(config_.seed, player) % sections_);
  for (std::size_t c = 0; c < sections_; ++c) scratch_row_[c] = 0.0;
  double remaining = p_star;
  for (std::size_t k = 0; k < sections_ && remaining > 0.0; ++k) {
    const std::size_t c = (offset + k) % sections_;
    const double room = std::max(0.0, cost_.cap_kw() - others[c]);
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
  // O(N + C) over the cached values; no satisfaction or cost re-evaluation.
  double welfare = 0.0;
  for (double satisfaction : sat_values_) welfare += satisfaction;
  const double idle_cost = cost_.value(0.0);
  for (double section_cost : cost_values_) welfare -= section_cost - idle_cost;
  return welfare;
}

CongestionReport Game::current_congestion() const {
  return congestion_report(schedule_, util::Kilowatts{p_line_kw_});
}

GameResult Game::run(bool warm_start) {
  OLEV_OBS_SPAN(run_span, "game.run", "solver");
  if (!warm_start) {
    schedule_ = PowerSchedule(players_.size(), sections_);
    cursor_ = 0;
    rebuild_caches();
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
  // the asynchronous game, so every best-response update is a weak ascent
  // step.  The greedy baseline has no such guarantee (linear pricing never
  // internalizes the overload cost), so the audit only arms for the
  // water-filling scheduler.
  OLEV_AUDIT_ONLY(double audit_welfare = current_welfare();)

  while (updates < config_.max_updates) {
    const std::size_t player = pick_player();
    const double previous = row_totals_[player];
    // Fine detail only: one span per player update swamps a phase trace.
    OLEV_OBS_FINE_SPAN(update_span, "game.update", "solver");
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
    const double payment = externality_payment(cost_, others, row);
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
  const double idle_cost = cost_.value(0.0);
  for (double load : loads) welfare -= cost_.value(load) - idle_cost;
  result.welfare = welfare;
  result.congestion = congestion_report(loads, util::Kilowatts{p_line_kw_});
  return result;
}

}  // namespace olev::core
