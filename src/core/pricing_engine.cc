#include "core/pricing_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/payment.h"
#include "core/water_filling.h"
#include "obs/flight.h"
#include "util/hot.h"

namespace olev::core {

OLEV_HOT_ROOT("olev::core::PricingEngine::apply");

PricingEngine::PricingEngine(SectionCost cost, EngineConfig config)
    : cost_(std::move(cost)),
      config_(std::move(config)),
      schedule_(config_.players, config_.sections),
      caps_(config_.caps_kw) {
  if (config_.players == 0 || config_.sections == 0) {
    throw std::invalid_argument("PricingEngine: players/sections must be > 0");
  }
  if (caps_.empty()) {
    caps_.assign(config_.players, std::numeric_limits<double>::infinity());
  } else if (caps_.size() != config_.players) {
    throw std::invalid_argument("PricingEngine: caps_kw size != players");
  }
  // Size the apply() arenas once: after this constructor returns, the
  // serve path never touches the allocator (enforced by tools/olev_rtcheck.py
  // and, in audit builds, by the operator-new interposer).
  scratch_applied_.row.assign(config_.sections, 0.0);
  scratch_others_.assign(config_.sections, 0.0);
  scratch_sorted_.reserve(config_.sections);
}

void PricingEngine::restore_state(std::span<const double> schedule_flat,
                                  std::uint64_t updates, double residual,
                                  bool converged, double total_load) {
  if (schedule_flat.size() != schedule_.players() * schedule_.sections()) {
    throw std::invalid_argument(
        "PricingEngine: restore schedule size != players * sections");
  }
  for (std::size_t n = 0; n < schedule_.players(); ++n) {
    schedule_.set_row(
        n, schedule_flat.subspan(n * schedule_.sections(),
                                 schedule_.sections()));
  }
  updates_ = static_cast<std::size_t>(updates);
  cycle_max_delta_ = residual;
  converged_ = converged;
  total_load_kw_ = total_load;
}

std::vector<double> PricingEngine::others_load(std::size_t player) const {
  if (config_.mode == EngineMode::kMeanField) {
    const double sections = static_cast<double>(schedule_.sections());
    const double others = total_load_kw_ - schedule_.row_total(player);
    return std::vector<double>(schedule_.sections(), others / sections);
  }
  return schedule_.column_totals_excluding(player);
}

void PricingEngine::apply_exact(std::size_t player, double admitted) {
  // Lemma IV.1 against the other players' column totals, then Eq. 8-9 on
  // the same b.  SortedLoads::fill_into is property-tested bit-identical to
  // water_fill's row (tests/test_water_filling.cc).
  schedule_.column_totals_excluding_into(player, scratch_others_);
  scratch_sorted_.reassign(scratch_others_);
  scratch_sorted_.fill_into(util::kw(admitted), scratch_applied_.row);
  schedule_.set_row(player, scratch_applied_.row);
  scratch_applied_.payment =
      externality_payment(cost_, scratch_others_, scratch_applied_.row);
}

void PricingEngine::apply_mean_field(std::size_t player, double admitted) {
  // The aggregate-field update (core/mean_field.h): the player's row is its
  // flat share of the field and the payment is the flat-field externality.
  // No per-player exclusion scan -- O(C) regardless of how many players the
  // schedule carries.
  total_load_kw_ += admitted - schedule_.row_total(player);
  const double sections = static_cast<double>(schedule_.sections());
  const double share = admitted / sections;
  for (double& cell : scratch_applied_.row) {
    cell = share;
  }
  schedule_.set_row(player, scratch_applied_.row);
  scratch_applied_.payment =
      sections * (cost_.value(total_load_kw_ / sections) -
                  cost_.value((total_load_kw_ - admitted) / sections));
}

const PricingEngine::Applied& PricingEngine::apply(std::size_t player,
                                                   double request) {
  OLEV_HOT_REGION("core.engine.apply");
  const double previous = schedule_.row_total(player);
  const double admitted = std::clamp(request, 0.0, caps_[player]);
  if (config_.mode == EngineMode::kMeanField) {
    apply_mean_field(player, admitted);
  } else {
    apply_exact(player, admitted);
  }

  cycle_max_delta_ = std::max(cycle_max_delta_,
                              std::abs(schedule_.row_total(player) - previous));
  ++updates_;
  if (updates_ % schedule_.players() == 0 && !converged_) {
    if (cycle_max_delta_ < config_.epsilon) {
      converged_ = true;
      // The flight-recorder record path is allocation/lock-free (its own
      // hot root), so calling it from inside this one is wall-legal.
      obs::flight::record(obs::flight::Event::kRoundConverge,
                          static_cast<std::uint64_t>(updates_),
                          std::bit_cast<std::uint64_t>(cycle_max_delta_));
    } else {
      cycle_max_delta_ = 0.0;
    }
  }
  return scratch_applied_;
}

}  // namespace olev::core
