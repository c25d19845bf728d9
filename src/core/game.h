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
//
// A *heterogeneous corridor* (mixed speed limits give each section its own
// P_line, Eq. 1, and so its own Z_c) runs through the same engine too, built
// with one SectionCost per section.  The grid then splits a request by
// generalized water-filling (equal marginal prices Z_c', not equal loads),
// and each OLEV's best response meets U'(p) at that common price.  Theorem
// IV.1 still holds for strictly convex Z_c.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/best_response.h"
#include "core/cost.h"
#include "core/satisfaction.h"
#include "core/schedule.h"
#include "core/welfare.h"
#include "obs/obs.h"
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
/// reset).  `section_*` count the column totals commit_row writes: a reuse
/// is a section whose load the update left unchanged, a refresh one it
/// changed.  `response_*` always read 0: Game keeps no best-response memo,
/// and the fields stay only because the benchmark still reports them
/// (perfbench/solve_paper.cc).
struct CacheCounters {
  std::size_t response_cache_hits = 0;  ///< always 0 (no memo)
  std::size_t response_recomputes = 0;  ///< always 0 (no memo)
  std::size_t section_cost_reuses = 0;
  std::size_t section_cost_refreshes = 0;

  /// Fraction of column totals an update left unchanged.
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
  /// The paper's corridor: one `cost` for every section.  `p_line` is the
  /// (uniform) raw line capacity used for congestion normalization; the
  /// safety cap eta*P_line lives inside `cost`.
  Game(std::vector<PlayerSpec> players, SectionCost cost, std::size_t sections,
       util::Kilowatts p_line, GameConfig config = {});

  /// A heterogeneous corridor: one cost and one P_line (kW, congestion
  /// normalization) per section.  Every cost needs a strictly convex pricing
  /// V (V'' > 0).  With more than one section the best response walks the
  /// generalized fill's price curve.  Path masks and the greedy scheduler
  /// are one-cost only and rejected here.
  Game(std::vector<PlayerSpec> players, std::vector<SectionCost> costs,
       std::vector<double> p_lines_kw, GameConfig config = {});

  std::size_t players() const { return players_.size(); }
  std::size_t sections() const { return sections_; }
  const PowerSchedule& schedule() const { return schedule_; }

  /// Performs one asynchronous update for `player`; returns |delta p_n|.
  /// Real-time hot root (util/hot.h): after construction, updates never
  /// touch the allocator -- all working storage lives in pre-sized arenas.
  OLEV_HOT double update_player(std::size_t player);

  /// Performs one update for the next player per the configured order.
  OLEV_HOT double step();

  /// Runs to convergence (or max_updates); resets the schedule first unless
  /// `warm_start`.
  [[nodiscard]] GameResult run(bool warm_start = false);

  /// Metrics snapshot of the current schedule.  current_welfare() evaluates
  /// sum_n U_n(p_n) - sum_c (Z_c(P_c) - Z_c(0)) over the cached row and
  /// column totals when asked: O(N + C) satisfaction and cost calls.
  double current_welfare() const;
  CongestionReport current_congestion() const;

  /// Cache counters for the current run (see CacheCounters).
  const CacheCounters& cache_counters() const { return caches_; }

 private:
  /// Constructor checks shared by both corridors, then the per-section cost
  /// table and the caches.
  void build();
  /// b for `player`: cached column totals minus the player's own row,
  /// written into `out` (length C).  Never allocates.
  void others_load_into(std::size_t player, std::span<double> out) const;
  /// Writes the new row and refreshes the cached column totals (others +
  /// row) and the player's row total.
  void commit_row(std::size_t player, std::span<const double> others,
                  std::span<const double> row);
  double update_waterfill(std::size_t player, std::span<const double> others);
  /// Best response against one cost per section, on the price curve of the
  /// player's b.
  double update_per_section(std::size_t player,
                            std::span<const double> others);
  double update_greedy(std::size_t player, std::span<const double> others);
  std::size_t pick_player();
  /// (Re)derives every cached aggregate from the current schedule.
  void rebuild_caches();
  GameResult finalize(bool converged, std::size_t updates,
                      std::vector<UpdateMetrics> trajectory) const;

  std::vector<PlayerSpec> players_;
  std::vector<SectionCost> costs_;  ///< one shared by all sections, or one each
  std::size_t sections_;
  std::vector<const SectionCost*> section_costs_;  ///< Z_c per section
  std::vector<double> idle_costs_;  ///< Z_c(0) per section
  std::vector<double> p_lines_kw_;  ///< P_line per section
  GameConfig config_;
  PowerSchedule schedule_;
  // --- incremental hot-path caches (invariants in docs/ALGORITHMS.md) ---
  std::vector<double> column_totals_;  ///< P_c per section (others + row)
  std::vector<double> row_totals_;     ///< p_n per player
  // --- pre-sized hot-path arenas (rebuild_caches sizes them; update_player
  // --- and everything below it never allocate) ---
  std::vector<double> scratch_others_;        ///< b of the updating player
  std::vector<double> scratch_row_;           ///< full-width row being built
  std::vector<double> scratch_subset_;        ///< masked b subvector
  std::vector<std::size_t> scratch_positions_;  ///< masked section indices
  std::vector<double> scratch_subrow_;        ///< masked row subvector
  SortedLoads scratch_sorted_;                ///< reserved to C sections
  PriceCurve scratch_curve_;  ///< reserved to C sections (one cost each)
  CacheCounters caches_;
#if OLEV_OBS_ENABLED
  /// Best-response telemetry of the updates since the last flush; run()
  /// adds it to the obs registry once, when it returns.
  BestResponseTally tally_;
#endif
  util::Rng rng_;
  std::size_t cursor_ = 0;  // round-robin position
};

}  // namespace olev::core
