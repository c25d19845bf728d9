#include "core/mean_field.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/payment.h"
#include "obs/obs.h"
#include "util/audit.h"
#include "util/hot.h"

namespace olev::core {

// Real-time wall manifest: the per-iteration field kernel.  run() itself
// stays cold (it builds the result vectors); the loop body's work happens
// inside these three.
OLEV_HOT_ROOT("olev::core::MeanFieldGame::aggregate_response");
OLEV_HOT_ROOT("olev::core::MeanFieldGame::level_for_total");
OLEV_HOT_ROOT("olev::core::MeanFieldGame::welfare_at");
OLEV_RT_VCALL_OK("olev::core::MeanFieldGame::aggregate_response",
                 "Satisfaction::derivative_inverse dispatch; every override "
                 "is a registered hot root");
OLEV_RT_VCALL_OK("olev::core::MeanFieldGame::welfare_at",
                 "Satisfaction dispatch; every override is a registered hot "
                 "root");

// Convergence: the fixed-point residual |sum_n p_n(rho(T)) - T|, or the
// bracket around T*, within kEpsilon relative to max(1, T).  Far below the
// exact game's epsilon, so differential bands measure the approximation,
// not this solver.
constexpr double kEpsilon = 1e-10;
constexpr std::size_t kMaxIterations = 500;

MeanFieldGame::MeanFieldGame(std::vector<PlayerSpec> players, SectionCost cost,
                             std::size_t sections, util::Kilowatts p_line,
                             MeanFieldConfig config)
    : players_(std::move(players)),
      cost_(std::move(cost)),
      sections_(sections),
      p_line_kw_(p_line.value()),
      config_(std::move(config)) {
  if (players_.empty()) {
    throw std::invalid_argument("MeanFieldGame: need at least one player");
  }
  if (sections_ == 0) {
    throw std::invalid_argument("MeanFieldGame: need at least one section");
  }
  if (p_line_kw_ <= 0.0) {
    throw std::invalid_argument("MeanFieldGame: p_line must be positive");
  }
  if (!cost_.strictly_convex()) {
    throw std::invalid_argument(
        "MeanFieldGame: the field level is identified through Z' -- the "
        "linear baseline stays on the exact Game");
  }
  for (const PlayerSpec& player : players_) {
    if (player.satisfaction == nullptr) {
      throw std::invalid_argument(
          "MeanFieldGame: player without satisfaction function");
    }
    if (player.p_max.value() < 0.0) {
      throw std::invalid_argument("MeanFieldGame: negative p_max");
    }
    if (!player.allowed_sections.empty()) {
      throw std::invalid_argument(
          "MeanFieldGame: path-restricted players need the exact Game (the "
          "field has no per-player section view)");
    }
  }
  if (config_.background_load_kw.empty()) {
    background_.assign(sections_, 0.0);
    flat_background_ = true;
  } else {
    if (config_.background_load_kw.size() != sections_) {
      throw std::invalid_argument(
          "MeanFieldGame: background_load_kw length mismatch");
    }
    background_ = config_.background_load_kw;
    flat_background_ = true;
    for (double load : background_) {
      if (!std::isfinite(load) || load < 0.0) {
        throw std::invalid_argument(
            "MeanFieldGame: background loads must be finite and >= 0");
      }
      if (load != 0.0) flat_background_ = false;
    }
  }
  sorted_background_ = SortedLoads(background_);
  scratch_fill_row_.assign(sections_, 0.0);
}

double MeanFieldGame::aggregate_response(double marginal) const {
  OLEV_HOT_REGION("core.meanfield.aggregate_response");
  double total = 0.0;
  if (marginal <= 0.0) {
    // A vanishing marginal price saturates every player at its cap.
    for (const PlayerSpec& player : players_) total += player.p_max.value();
    return total;
  }
  for (const PlayerSpec& player : players_) {
    const double unconstrained =
        player.satisfaction->derivative_inverse(marginal);
    const double cap = player.p_max.value();
    total += unconstrained < cap ? unconstrained : cap;
  }
  return total;
}

double MeanFieldGame::level_for_total(double total) const {
  if (flat_background_) {
    // Zero background: the water spreads over every section evenly.
    return total / static_cast<double>(sections_);
  }
  return sorted_background_.level_for(util::kw(total));
}

std::vector<double> MeanFieldGame::field_at(double total) const {
  if (flat_background_) {
    return std::vector<double>(sections_,
                               total / static_cast<double>(sections_));
  }
  const WaterFillResult fill = sorted_background_.fill(util::kw(total));
  std::vector<double> field = background_;
  for (std::size_t c = 0; c < sections_; ++c) field[c] += fill.row[c];
  return field;
}

double MeanFieldGame::welfare_at(double total, double* responded_total) const {
  OLEV_HOT_REGION("core.meanfield.welfare_at");
  const double rho = cost_.derivative(level_for_total(total));
  double responded = 0.0;
  double satisfaction = 0.0;
  for (const PlayerSpec& player : players_) {
    double p = rho > 0.0 ? player.satisfaction->derivative_inverse(rho)
                         : player.p_max.value();
    const double cap = player.p_max.value();
    if (p > cap) p = cap;
    responded += p;
    satisfaction += player.satisfaction->value(p);
  }
  if (responded_total != nullptr) *responded_total = responded;

  double grid_cost = 0.0;
  if (flat_background_) {
    const double level = responded / static_cast<double>(sections_);
    grid_cost = static_cast<double>(sections_) *
                (cost_.value(level) - cost_.value(0.0));
  } else {
    // fill_into reproduces fill()'s arithmetic bit-for-bit against the
    // pre-sized arena, keeping this kernel allocation-free.
    sorted_background_.fill_into(util::kw(responded),
                                 {scratch_fill_row_.data(), sections_});
    for (std::size_t c = 0; c < sections_; ++c) {
      grid_cost += cost_.value(background_[c] + scratch_fill_row_[c]) -
                   cost_.value(background_[c]);
    }
  }
  return satisfaction - grid_cost;
}

MeanFieldResult MeanFieldGame::run() {
  OLEV_OBS_SPAN(run_span, "meanfield.run", "solver");
  MeanFieldResult result;

  // The fixed point T* of T -> sum_n p_n(Z'(lambda(T))) is unique: the
  // response sum is nonincreasing in T while the identity is increasing.
  // g(0) bounds every response from above, so [0, g(0)] brackets T*.
  double lo = 0.0;
  double hi = aggregate_response(cost_.derivative(level_for_total(0.0)));
  double total = 0.0;
  double welfare = welfare_at(total);
  bool converged = false;
  std::size_t iterations = 0;

  while (iterations < kMaxIterations) {
    const double response = aggregate_response(
        cost_.derivative(level_for_total(total)));
    const double residual = response - total;
    if (std::abs(residual) <= kEpsilon * std::max(1.0, total)) {
      converged = true;
      break;
    }
    // Both [lo, hi] and [total, response] bracket T* (g is decreasing and
    // crosses the identity once), so the bracket shrinks monotonically.
    if (residual > 0.0) {
      lo = std::max(lo, total);
      hi = std::min(hi, response);
    } else {
      hi = std::min(hi, total);
      lo = std::max(lo, response);
    }
    // A collapsed bracket pins T* positionally even when the response is
    // steep enough (g' < -1) that the residual itself stays large -- the
    // damped iterate then oscillates around T* inside an ever-shrinking
    // interval and the residual check above would never fire.
    if (hi - lo <= kEpsilon * std::max(1.0, total)) {
      converged = true;
      break;
    }
    // Damped fixed-point step, clamped into the middle half of the bracket.
    // The clamp guarantees the next [total, response] intersection shrinks
    // the bracket by at least 25% per iteration (geometric convergence
    // regardless of the response slope), while leaving the damped step
    // untouched whenever it already lands well inside.
    const double width = hi - lo;
    double candidate = total + 0.5 * residual;
    candidate = std::clamp(candidate, lo + 0.25 * width, hi - 0.25 * width);

    // Welfare backtracking: the implied-profile welfare is unimodal in T
    // with its maximum at T*, so halving an overshoot back toward the
    // current iterate restores ascent.  This makes every *accepted*
    // iteration a weak welfare improvement (Theorem IV.1's analogue for
    // field iterations, audited below).
    double candidate_welfare = welfare_at(candidate);
    for (int backtrack = 0;
         backtrack < 48 &&
         candidate_welfare <
             welfare - 1e-12 * std::max(1.0, std::abs(welfare));
         ++backtrack) {
      candidate = 0.5 * (candidate + total);
      candidate_welfare = welfare_at(candidate);
    }

#if OLEV_AUDIT_ENABLED
    OLEV_AUDIT_FINITE(candidate, "MeanFieldGame::run: iterate");
    OLEV_AUDIT_FINITE(candidate_welfare, "MeanFieldGame::run: welfare");
    OLEV_AUDIT_CHECK(
        candidate_welfare >=
            welfare - 1e-9 * std::max(1.0, std::abs(welfare)),
        "MeanFieldGame::run: welfare decreased on field iteration " +
            std::to_string(iterations + 1) + ": " + std::to_string(welfare) +
            " -> " + std::to_string(candidate_welfare));
#endif

    const double previous = total;
    total = candidate;
    welfare = candidate_welfare;
    ++iterations;

    if (config_.record_trajectory) {
      UpdateMetrics metrics;
      metrics.update = iterations;
      metrics.player = players_.size();  // every player re-responded
      metrics.request = total;
      metrics.request_delta = std::abs(total - previous);
      metrics.welfare = welfare;
      double background_total = 0.0;
      for (double b : background_) background_total += b;
      metrics.mean_congestion = (total + background_total) /
                                (static_cast<double>(sections_) * p_line_kw_);
      result.trajectory.push_back(metrics);
    }
  }

  // Finalize on the responded profile so the published per-player requests
  // are exactly self-consistent with the published field.
  const double rho_at_total = cost_.derivative(level_for_total(total));
  result.requests.resize(players_.size());
  double responded = 0.0;
  double satisfaction_sum = 0.0;
  for (std::size_t n = 0; n < players_.size(); ++n) {
    const PlayerSpec& player = players_[n];
    double p = rho_at_total > 0.0
                   ? player.satisfaction->derivative_inverse(rho_at_total)
                   : player.p_max.value();
    const double cap = player.p_max.value();
    if (p > cap) p = cap;
    result.requests[n] = p;
    responded += p;
    satisfaction_sum += player.satisfaction->value(p);
  }

  result.converged = converged;
  result.iterations = iterations;
  result.total_load_kw = responded;
  result.water_level_kw = level_for_total(responded);
  result.marginal_price = cost_.derivative(result.water_level_kw);
  result.field = field_at(responded);

  // Payments: each player owns the p_n / T share of the aggregate
  // water-filled increment (its representative allocation), and pays the
  // externality of that row (Eq. 8-9 against the field).  Over a flat
  // field this collapses to the closed form C (Z(T/C) - Z((T - p_n)/C)).
  result.payments.assign(players_.size(), 0.0);
  result.utilities.resize(players_.size());
  double grid_cost = 0.0;
  if (responded > 0.0) {
    if (flat_background_) {
      const double level = result.water_level_kw;
      const double idle = cost_.value(0.0);
      const double sections = static_cast<double>(sections_);
      const double cost_at_level = cost_.value(level);
      for (std::size_t n = 0; n < players_.size(); ++n) {
        result.payments[n] =
            sections *
            (cost_at_level -
             cost_.value((responded - result.requests[n]) / sections));
      }
      grid_cost = sections * (cost_at_level - idle);
    } else {
      const WaterFillResult fill = sorted_background_.fill(util::kw(responded));
      std::vector<double> others(sections_);
      std::vector<double> row(sections_);
      for (std::size_t n = 0; n < players_.size(); ++n) {
        const double share = result.requests[n] / responded;
        for (std::size_t c = 0; c < sections_; ++c) {
          row[c] = share * fill.row[c];
          others[c] = result.field[c] - row[c];
        }
        result.payments[n] = externality_payment(cost_, others, row);
      }
      for (std::size_t c = 0; c < sections_; ++c) {
        grid_cost += cost_.value(result.field[c]) - cost_.value(background_[c]);
      }
    }
  }
  for (std::size_t n = 0; n < players_.size(); ++n) {
    result.utilities[n] =
        players_[n].satisfaction->value(result.requests[n]) -
        result.payments[n];
  }
  result.welfare = satisfaction_sum - grid_cost;
  result.congestion = congestion_report(
      std::span<const double>(result.field), util::Kilowatts{p_line_kw_});

#if OLEV_AUDIT_ENABLED
  {
    namespace audit = util::audit;
    // Field self-consistency: the published field carries exactly the
    // responded aggregate on top of the background.
    double field_total = 0.0;
    double background_total = 0.0;
    for (std::size_t c = 0; c < sections_; ++c) {
      OLEV_AUDIT_FINITE(result.field[c],
                        "MeanFieldGame: field[" + std::to_string(c) + "]");
      field_total += result.field[c];
      background_total += background_[c];
    }
    OLEV_AUDIT_CHECK(
        audit::close(field_total - background_total, responded,
                     1e-9 * std::max(1.0, responded)),
        "MeanFieldGame: field total " + std::to_string(field_total) +
            " inconsistent with aggregate demand " + std::to_string(responded));
    // Representative-player KKT at the fixed point (Lemma IV.1/IV.3 in the
    // mean-field limit): interior players equalize U' with the marginal
    // price, corner players satisfy the matching inequality.
    const double rho = result.marginal_price;
    const double tol = 1e-6 * std::max(1.0, rho);
    for (std::size_t n = 0; n < players_.size(); ++n) {
      const double p = result.requests[n];
      const double cap = players_[n].p_max.value();
      const double du = players_[n].satisfaction->derivative(p);
      if (p <= 0.0) {
        OLEV_AUDIT_CHECK(du <= rho + tol,
                         "MeanFieldGame: zero request but U'(0) > rho for "
                         "player " + std::to_string(n));
      } else if (p >= cap) {
        OLEV_AUDIT_CHECK(du >= rho - tol,
                         "MeanFieldGame: capped request but U'(cap) < rho "
                         "for player " + std::to_string(n));
      } else {
        OLEV_AUDIT_CHECK(audit::close(du, rho, tol),
                         "MeanFieldGame: interior KKT violated for player " +
                             std::to_string(n) + ": U' = " +
                             std::to_string(du) + ", rho = " +
                             std::to_string(rho));
      }
      // Eq. 8-9: externality payments against a nondecreasing Z are
      // non-negative.
      OLEV_AUDIT_FINITE(result.payments[n],
                        "MeanFieldGame: payment of player " +
                            std::to_string(n));
      OLEV_AUDIT_CHECK(result.payments[n] >=
                           -1e-9 * std::max(1.0, std::abs(result.payments[n])),
                       "MeanFieldGame: negative payment " +
                           std::to_string(result.payments[n]) + " for player " +
                           std::to_string(n));
    }
    OLEV_AUDIT_FINITE(result.welfare, "MeanFieldGame: welfare");
  }
#endif

  OLEV_OBS_COUNTER(obs_runs, "core.meanfield.runs");
  OLEV_OBS_ADD(obs_runs, 1);
  OLEV_OBS_COUNTER(obs_updates, "core.meanfield.player_updates");
  OLEV_OBS_ADD(obs_updates, iterations * players_.size());
  OLEV_OBS_HISTOGRAM(obs_iterations, "core.meanfield.iterations_per_run",
                     {5, 10, 20, 40, 80, 160, 320, 640});
  OLEV_OBS_OBSERVE(obs_iterations, static_cast<double>(iterations));
  OLEV_OBS_SPAN_ARG(run_span, "iterations", static_cast<double>(iterations));
  OLEV_OBS_SPAN_ARG(run_span, "players", static_cast<double>(players_.size()));
  OLEV_OBS_SPAN_ARG(run_span, "converged", converged ? 1.0 : 0.0);
  return result;
}

PowerSchedule MeanFieldGame::materialize_schedule(
    const MeanFieldResult& result) const {
  if (result.requests.size() != players_.size() ||
      result.field.size() != sections_) {
    throw std::invalid_argument(
        "MeanFieldGame::materialize_schedule: result shape mismatch");
  }
  PowerSchedule schedule(players_.size(), sections_);
  if (result.total_load_kw <= 0.0) return schedule;
  // Each player owns its p_n / T share of the aggregate increment over the
  // background (see the payment derivation in run()).
  std::vector<double> increment(sections_);
  for (std::size_t c = 0; c < sections_; ++c) {
    increment[c] = result.field[c] - background_[c];
  }
  std::vector<double> row(sections_);
  for (std::size_t n = 0; n < players_.size(); ++n) {
    const double share = result.requests[n] / result.total_load_kw;
    for (std::size_t c = 0; c < sections_; ++c) row[c] = share * increment[c];
    schedule.set_row(n, row);
  }
  return schedule;
}

GameResult MeanFieldGame::to_game_result(const MeanFieldResult& result) const {
  GameResult out;
  out.schedule = materialize_schedule(result);
  out.converged = result.converged;
  out.updates = result.iterations * players_.size();
  out.welfare = result.welfare;
  out.congestion = result.congestion;
  out.requests = result.requests;
  out.payments = result.payments;
  out.utilities = result.utilities;
  out.trajectory = result.trajectory;
  return out;
}

}  // namespace olev::core
