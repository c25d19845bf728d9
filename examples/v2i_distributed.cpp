// The decentralized game over a lossy V2I link (Section IV-D end to end).
//
// Spawns a smart-grid node plus one agent node per OLEV, exchanges the
// serialized PaymentFunction / PowerRequest / Schedule messages over a
// simulated DSRC-like bus, and shows that the fixed point is unaffected by
// packet loss -- only time-to-converge and retransmissions grow.
//
//   $ ./v2i_distributed [drop_probability]       # default 0.1

#include <cstdlib>
#include <iostream>
#include <memory>

#include "core/distributed.h"
#include "util/csv.h"

namespace {

using namespace olev;

std::vector<core::PlayerSpec> make_players() {
  std::vector<core::PlayerSpec> players;
  const double weights[] = {12.0, 25.0, 18.0, 9.0, 30.0, 14.0};
  for (double w : weights) {
    core::PlayerSpec player;
    player.satisfaction = std::make_unique<core::LogSatisfaction>(w);
    player.p_max = olev::util::kw(60.0);
    players.push_back(std::move(player));
  }
  return players;
}

core::SectionCost make_cost() {
  return core::SectionCost(
      std::make_unique<core::NonlinearPricing>(5.0, 0.875, 40.0),
      core::OverloadCost{1.0}, olev::util::kw(40.0));
}

}  // namespace

int main(int argc, char** argv) {
  double drop = 0.1;
  if (argc > 1) drop = std::atof(argv[1]);
  if (drop < 0.0 || drop >= 1.0) {
    std::cerr << "drop probability must be in [0, 1)\n";
    return 1;
  }

  // Reference: the in-process game (no network).
  core::Game reference(make_players(), make_cost(), 5, olev::util::kw(50.0));
  const core::GameResult expected = reference.run();

  std::cout << "Running the decentralized V2I game at three loss rates...\n\n";
  util::Table table({"drop_prob", "converged", "rounds", "retransmits",
                     "sim_time_s", "msgs_sent", "max_diff_vs_reference_kW"});
  for (double rate : {0.0, drop, 0.3}) {
    core::DistributedConfig config;
    config.link.base_latency_s = 0.02;  // DSRC-like
    config.link.jitter_s = 0.01;
    config.link.drop_probability = rate;
    config.retransmit_timeout_s = 0.15;
    const core::DistributedResult result = core::run_distributed_game(
        make_players(), make_cost(), 5, config);
    table.add_row({util::fmt(rate, 2), result.converged ? "yes" : "no",
                   util::fmt(static_cast<double>(result.rounds), 0),
                   util::fmt(static_cast<double>(result.retransmissions), 0),
                   util::fmt(result.sim_time_s, 2),
                   util::fmt(static_cast<double>(result.bus.sent), 0),
                   util::fmt(result.schedule.max_abs_diff(expected.schedule), 6)});
  }
  table.write_pretty(std::cout);

  std::cout << "\nPer-OLEV equilibrium (reference, in-process):\n";
  util::Table schedule_table({"olev", "request_kW", "payment_$per_h"});
  for (std::size_t n = 0; n < expected.requests.size(); ++n) {
    schedule_table.add_row_numeric({static_cast<double>(n),
                                    expected.requests[n], expected.payments[n]},
                                   3);
  }
  schedule_table.write_pretty(std::cout);
  std::cout << "\nLoss changes the path, not the destination: the schedule\n"
               "column `max_diff_vs_reference_kW` stays at numerical noise.\n";
  return 0;
}
