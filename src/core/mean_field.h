// Mean-field approximation of the pricing game (docs/ALGORITHMS.md 5c).
//
// The exact asynchronous game (core/game.h) prices every OLEV against the
// other N-1 players' explicit load vector b, which makes a full round O(N)
// solves and caps the serving stack far below millions of players.  The
// congestion structure, however, only couples players through the
// *aggregate* per-section load -- the same observation the mean-field-game
// literature makes for EV charging (Couillet et al., "Electrical Vehicles in
// the Smart Grid: A Mean Field Game Analysis"; Beaude et al., "Charging
// Games in Networks of Electrical Vehicles" for the convergence conditions).
//
// MeanFieldGame therefore replaces the N-opponent view with the field
//
//   L_c  =  background_c + share of the aggregate OLEV demand T on section c,
//
// where the aggregate demand is split by the same water-filling rule the
// grid applies to individual requests (Lemma IV.1 in the continuum limit).
// One field iteration is:
//
//   1. lambda(T)  =  water level of T against the background loads (O(log C)
//                    against a pre-sorted background);
//   2. rho(T)     =  Z'(lambda(T)), the flat marginal price every
//                    representative player faces;
//   3. p_n        =  clamp((U_n')^{-1}(rho), 0, P_OLEV_n)   -- O(1)/player;
//   4. T'         =  sum_n p_n, with a welfare-backtracking damped step and
//                    a shrinking bracket around the unique fixed point.
//
// The aggregate response T -> sum_n p_n(rho(T)) is strictly decreasing while
// rho(T) is increasing, so the fixed point is unique; the welfare of the
// implied profile is unimodal in T with its maximum exactly at the fixed
// point, which is what lets the iteration enforce monotone welfare (the
// Theorem IV.1 analogue, audited under OLEV_AUDIT like the exact path).
//
// Exactness: with a homogeneous corridor (identical Z, no path
// restrictions, zero background) the mean-field fixed point satisfies the
// *same* stationarity conditions as the exact equilibrium -- U_n'(p_n) =
// Z'(T/C) -- so the approximation error is bounded by solver tolerances
// alone; the differential harness (tests/test_meanfield_vs_exact.cc) pins
// this against the exact Game for all N <= 50.  With a non-flat field the
// self-exclusion bias of pricing against the full aggregate is O(1/N),
// which is why the harness's tolerance bands tighten as N grows.
#pragma once

#include <cstddef>
#include <vector>

#include "core/game.h"
#include "core/schedule.h"
#include "core/welfare.h"
#include "util/quantity.h"

namespace olev::core {

struct MeanFieldConfig {
  bool record_trajectory = false;
  /// Exogenous per-section load in kW (non-OLEV draw on the feeder); empty
  /// means zero everywhere.  A non-flat background is what makes the field
  /// a genuine distribution rather than a single level.
  std::vector<double> background_load_kw;
};

struct MeanFieldResult {
  bool converged = false;
  std::size_t iterations = 0;      ///< accepted field iterations
  double total_load_kw = 0.0;      ///< T: aggregate OLEV demand at the fixed point
  double water_level_kw = 0.0;     ///< lambda(T)
  double marginal_price = 0.0;     ///< rho = Z'(lambda), $/h per kW
  std::vector<double> field;       ///< per-section load incl. background (kW)
  std::vector<double> requests;    ///< p_n per player (kW)
  std::vector<double> payments;    ///< Psi_n per player ($/h)
  std::vector<double> utilities;   ///< F_n = U_n - Psi_n per player
  double welfare = 0.0;
  CongestionReport congestion;
  /// One entry per accepted field iteration when recording: update = the
  /// iteration index, player = N (every player re-responded), request = T.
  std::vector<UpdateMetrics> trajectory;
};

/// The aggregate-distribution twin of core::Game.  Accepts the same
/// PlayerSpec list (so Scenario can mint either engine) but requires
/// unrestricted paths (empty allowed_sections) and a strictly convex
/// section cost -- path-restricted players and the linear baseline stay on
/// the exact game.
class MeanFieldGame {
 public:
  MeanFieldGame(std::vector<PlayerSpec> players, SectionCost cost,
                std::size_t sections, util::Kilowatts p_line,
                MeanFieldConfig config = {});

  std::size_t players() const { return players_.size(); }
  std::size_t sections() const { return sections_; }
  const SectionCost& cost() const { return cost_; }
  double p_line_kw() const { return p_line_kw_; }

  /// Iterates the field to its fixed point.  Deterministic: same inputs,
  /// same result, no RNG involved.
  [[nodiscard]] MeanFieldResult run();

  /// The per-player allocation rows implied by a result: each player holds
  /// the p_n / T share of the aggregate water-filled increment on every
  /// section (flat p_n / C rows over a flat field).  O(N * C) memory --
  /// intended for differential tests and sweep-scale N, not for millions of
  /// players.
  [[nodiscard]] PowerSchedule materialize_schedule(
      const MeanFieldResult& result) const;

  /// Adapter for call sites built around the exact engine (sweep results,
  /// trace export): materializes the schedule and copies the shared
  /// fields.  `updates` becomes iterations * N, the number of O(1)
  /// representative-player updates performed.
  [[nodiscard]] GameResult to_game_result(const MeanFieldResult& result) const;

 private:
  // The three helpers below are the per-iteration kernel and are hot roots
  // of the real-time wall (util/hot.h): one field iteration is a handful of
  // calls to them, and none may touch the allocator.
  /// sum_n clamp((U_n')^{-1}(marginal), 0, p_max_n).  Strictly decreasing
  /// in `marginal`; one O(1) solve per player.
  OLEV_HOT double aggregate_response(double marginal) const;
  /// Water level of aggregate demand `total` against the background.
  OLEV_HOT double level_for_total(double total) const;
  /// Welfare of the profile "every player best-responds to rho(total)":
  /// sum U_n(p_n) - sum_c [Z(L_c) - Z(background_c)] at the implied field.
  OLEV_HOT double welfare_at(double total,
                             double* responded_total = nullptr) const;
  /// Field (incl. background) implied by aggregate OLEV demand `total`.
  std::vector<double> field_at(double total) const;

  std::vector<PlayerSpec> players_;
  SectionCost cost_;
  std::size_t sections_;
  double p_line_kw_;
  MeanFieldConfig config_;
  std::vector<double> background_;   ///< per-section, zeros when not given
  SortedLoads sorted_background_;
  /// Pre-sized arena for welfare_at's non-flat water-fill (hot, mutable so
  /// the const kernel can reuse it; MeanFieldGame is not thread-safe).
  mutable std::vector<double> scratch_fill_row_;
  bool flat_background_ = true;      ///< all-zero background fast path
};

}  // namespace olev::core
