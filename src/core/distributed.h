// The decentralized update process of Section IV-D, run over the V2I
// message bus instead of in-process calls.
//
// Protocol per update round k (grid-coordinated, asynchronous across OLEVs):
//   grid -> OLEV n : PaymentFunctionMsg{n, k, b}     (announces Psi_n^k)
//   OLEV n -> grid : PowerRequestMsg{n, k, p_n*}     (best response, Eq. 21)
//   grid -> OLEV n : ScheduleMsg{n, k, row, payment} (Lemma IV.1 allocation)
//
// The link model can delay and drop messages; the grid retransmits the
// payment function if no request arrives within a timeout, and round ids
// make both directions idempotent, so the fixed point is unaffected by loss
// -- only time-to-converge grows.  The integration tests assert the
// schedule matches the in-process Game equilibrium even at 20% loss.
#pragma once

#include <memory>
#include <vector>

#include "core/cost.h"
#include "core/game.h"
#include "core/satisfaction.h"
#include "core/schedule.h"
#include "net/bus.h"
#include "wpt/olev.h"

namespace olev::core {

struct DistributedConfig {
  net::LinkModel link;
  double retransmit_timeout_s = 0.25;
  double epsilon = 1e-7;            ///< convergence on a full player cycle
  std::size_t max_rounds = 50000;   ///< total player updates before giving up
  double max_sim_time_s = 3600.0;   ///< wall-clock guard in simulated seconds
};

struct DistributedResult {
  PowerSchedule schedule;
  bool converged = false;
  std::size_t rounds = 0;           ///< completed player updates
  std::size_t retransmissions = 0;
  double sim_time_s = 0.0;          ///< simulated time to convergence
  net::BusStats bus;
  /// Per-player externality payment from each player's final ScheduleMsg
  /// (Eq. 8-9 evaluated at the player's last applied update).  The grid
  /// prices every request through core::PricingEngine, the engine olevd
  /// serves, so a grid-paced service session reports the same bits.
  std::vector<double> payments;
};

/// Runs the full decentralized game: one grid node plus one agent node per
/// player, exchanging serialized messages over a lossy bus.
[[nodiscard]] DistributedResult run_distributed_game(
    std::vector<PlayerSpec> players, const SectionCost& cost,
    std::size_t sections, const DistributedConfig& config = {});

/// Physical profile an OLEV announces via V2I beacons (Section IV-A: OLEVs
/// "inform their current positions and velocities"; the grid derives the
/// admissible power from Eq. 1-3 itself rather than trusting the request).
struct AgentProfile {
  double position_m = 0.0;
  double velocity_mps = 26.8;
  double soc = 0.5;
  wpt::OlevParams olev;
  wpt::ChargingSectionSpec section;
  /// Demand overstatement factor: 1.0 = honest; > 1.0 models a greedy or
  /// buggy agent requesting more than its physical cap.
  double claim_factor = 1.0;

  /// The grid's admission cap from a beacon: min(P_line(velocity),
  /// P_OLEV upper bound at soc_max requirement) -- Eq. (3) evaluated with
  /// the information the beacon carries.
  double admission_cap_kw() const;
};

/// Beacon-admitted session: agents beacon their physical state first, the
/// grid derives per-player admission caps, and every subsequent power
/// request is clamped to its cap before scheduling.  Overstated demand
/// (claim_factor > 1) is therefore neutralized at the grid -- the fleet's
/// schedule stays physical no matter what an individual agent claims.
[[nodiscard]] DistributedResult run_v2i_session(
    std::vector<PlayerSpec> players, const std::vector<AgentProfile>& profiles,
    const SectionCost& cost, std::size_t sections,
    const DistributedConfig& config = {});

}  // namespace olev::core
