// The asynchronous best-response game (Section IV-D/E/F).
//
// The smart grid and the OLEVs iterate:
//   1. the grid announces OLEV n's payment function Psi_n (equivalently, the
//      aggregate other-load vector b and the section cost Z);
//   2. OLEV n plays its best response p_n* (Lemma IV.3);
//   3. the grid water-fills p_n* across sections (Lemma IV.1) and updates
//      the schedule.
// Players update one at a time -- round-robin or uniformly at random -- and
// by Theorem IV.1 the process converges to the unique socially optimal
// schedule.
//
// The *linear pricing baseline* evaluated in Section V runs through the same
// engine with SchedulerKind::kGreedy: under V(x) = beta * x the payment is
// allocation-independent, the water level is not identified, and the grid
// has no balancing incentive -- the baseline fills sections greedily in
// index order up to the safety cap, which reproduces the unbalanced loads of
// Figs. 5(c)/6(c).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/best_response.h"
#include "core/cost.h"
#include "core/satisfaction.h"
#include "core/schedule.h"
#include "core/welfare.h"
#include "util/quantity.h"
#include "util/rng.h"

namespace olev::core {

struct PlayerSpec {
  std::unique_ptr<Satisfaction> satisfaction;
  util::Kilowatts p_max{};  ///< P_OLEV_n of Eq. (2)-(3)
  /// Sections this OLEV can physically draw from (its planned path).
  /// Empty = all sections.  Must have `sections` entries otherwise.
  std::vector<bool> allowed_sections;
};

enum class UpdateOrder { kRoundRobin, kUniformRandom };
enum class SchedulerKind { kWaterFilling, kGreedy };

struct GameConfig {
  UpdateOrder order = UpdateOrder::kRoundRobin;
  SchedulerKind scheduler = SchedulerKind::kWaterFilling;
  double epsilon = 1e-5;          ///< convergence: max row change over a cycle
  std::size_t max_updates = 500000;
  std::uint64_t seed = 0x9a3e;
  bool record_trajectory = false;
};

/// Counters for the incremental-update caches (cumulative since the last
/// reset).  `section_*` counts per-section cost cells in commit_row: a
/// reuse means the section's load did not change, so Z(P_c) kept its
/// cached value.  `response_*` always read 0: Game keeps no best-response
/// memo, and the fields stay only because the benchmark still reports
/// them (perfbench/solve_paper.cc).
///
/// This struct is the per-Game view; every section increment is mirrored
/// into the process-wide obs registry under `core.game.*`
/// (docs/OBSERVABILITY.md), which aggregates across all Game instances and
/// threads.
struct CacheCounters {
  std::size_t response_cache_hits = 0;  ///< always 0 (no memo)
  std::size_t response_recomputes = 0;  ///< always 0 (no memo)
  std::size_t section_cost_reuses = 0;
  std::size_t section_cost_refreshes = 0;

  /// Fraction of per-section cost cells reused without re-evaluating Z.
  double section_reuse_ratio() const {
    const std::size_t total = section_cost_reuses + section_cost_refreshes;
    return total == 0 ? 0.0
                      : static_cast<double>(section_cost_reuses) /
                            static_cast<double>(total);
  }
  /// Zeroes every counter (the struct stays aggregate-initializable; this
  /// mirrors obs::Registry::reset() for the per-Game view).
  void reset() { *this = CacheCounters{}; }
};

/// Per-update metrics (one entry per player update when recording).
struct UpdateMetrics {
  std::size_t update = 0;
  std::size_t player = 0;
  double request = 0.0;          ///< p_n* chosen this update
  double request_delta = 0.0;    ///< |p_n* - previous p_n|
  double welfare = 0.0;
  double mean_congestion = 0.0;  ///< mean_c P_c / P_line
  CacheCounters caches;          ///< cumulative snapshot at this update
};

struct GameResult {
  PowerSchedule schedule;
  bool converged = false;
  std::size_t updates = 0;
  double welfare = 0.0;
  CongestionReport congestion;
  std::vector<double> requests;   ///< per-player totals p_n
  std::vector<double> payments;   ///< per-player Psi_n at the fixed point
  std::vector<double> utilities;  ///< per-player F_n at the fixed point
  std::vector<UpdateMetrics> trajectory;  ///< empty unless recording
  CacheCounters caches;           ///< totals for the whole run
};

class Game {
 public:
  /// `p_line` is the (uniform) raw line capacity used for congestion
  /// normalization; the safety cap eta*P_line lives inside `cost`.
  Game(std::vector<PlayerSpec> players, SectionCost cost, std::size_t sections,
       util::Kilowatts p_line, GameConfig config = {});

  std::size_t players() const { return players_.size(); }
  std::size_t sections() const { return sections_; }
  const PowerSchedule& schedule() const { return schedule_; }
  const SectionCost& cost() const { return cost_; }
  double p_line_kw() const { return p_line_kw_; }

  /// Performs one asynchronous update for `player`; returns |delta p_n|.
  /// Real-time hot root (util/hot.h): after construction, updates never
  /// touch the allocator -- all working storage lives in pre-sized arenas.
  OLEV_HOT double update_player(std::size_t player);

  /// Performs one update for the next player per the configured order.
  OLEV_HOT double step();

  /// Runs to convergence (or max_updates); resets the schedule first unless
  /// `warm_start`.
  [[nodiscard]] GameResult run(bool warm_start = false);

  /// Metrics snapshot of the current schedule.
  double current_welfare() const;
  CongestionReport current_congestion() const;

  /// Cache counters for the current run (see CacheCounters).
  const CacheCounters& cache_counters() const { return caches_; }

 private:
  /// b for `player`: cached column totals minus the player's own row,
  /// written into `out` (length C).  Never allocates.
  void others_load_into(std::size_t player, std::span<double> out) const;
  /// Writes the new row and refreshes the cached column totals, per-section
  /// cost values, row totals and satisfaction values -- all by delta, only
  /// for the sections whose load actually changed.
  void commit_row(std::size_t player, std::span<const double> others,
                  std::span<const double> row);
  double update_waterfill(std::size_t player, std::span<const double> others);
  double update_greedy(std::size_t player, std::span<const double> others);
  std::size_t pick_player();
  /// (Re)derives every cached aggregate from the current schedule.
  void rebuild_caches();
  GameResult finalize(bool converged, std::size_t updates,
                      std::vector<UpdateMetrics> trajectory) const;

  std::vector<PlayerSpec> players_;
  SectionCost cost_;
  std::size_t sections_;
  double p_line_kw_;
  GameConfig config_;
  PowerSchedule schedule_;
  std::vector<double> column_totals_;  ///< cached P_c, kept in sync with schedule_
  // --- incremental hot-path caches (invariants in docs/ALGORITHMS.md) ---
  std::vector<double> cost_values_;   ///< Z(P_c) per section
  std::vector<double> row_totals_;    ///< p_n per player
  std::vector<double> sat_values_;    ///< U_n(p_n) per player
  // --- pre-sized hot-path arenas (rebuild_caches sizes them; update_player
  // --- and everything below it never allocate) ---
  std::vector<double> scratch_others_;        ///< b of the updating player
  std::vector<double> scratch_row_;           ///< full-width row being built
  std::vector<double> scratch_subset_;        ///< masked b subvector
  std::vector<std::size_t> scratch_positions_;  ///< masked section indices
  std::vector<double> scratch_subrow_;        ///< masked row subvector
  SortedLoads scratch_sorted_;                ///< reserved to C sections
  CacheCounters caches_;
  util::Rng rng_;
  std::size_t cursor_ = 0;  // round-robin position
};

}  // namespace olev::core
