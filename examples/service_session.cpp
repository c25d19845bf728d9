// Served pricing session end to end, in one process: a PricingService in
// grid-paced announce mode on an ephemeral loopback port, one socket client
// per OLEV answering announcements with best responses (Lemma IV.3), and a
// final cross-check against the in-process distributed driver -- the served
// equilibrium must match bit for bit (the src/svc contract, pinned harder in
// tests/test_svc.cc).
//
//   $ ./service_session

#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/best_response.h"
#include "core/distributed.h"
#include "core/satisfaction.h"
#include "obs/report.h"
#include "svc/client.h"
#include "svc/service.h"

namespace {

using namespace olev;

const std::vector<double> kWeights{10.0, 20.0, 15.0, 12.0};
constexpr std::size_t kSections = 4;

core::SectionCost make_cost() {
  return core::SectionCost(
      std::make_unique<core::NonlinearPricing>(5.0, 0.875, 40.0),
      core::OverloadCost{1.0}, util::kw(40.0));
}

/// One OLEV: binds its player id, best-responds to every announcement,
/// leaves on the CONVERGED broadcast.
void drive_player(std::uint16_t port, std::uint32_t player, double weight,
                  double* final_payment) {
  const core::LogSatisfaction satisfaction(weight);
  const core::SectionCost cost = make_cost();
  svc::ServiceClient client = svc::ServiceClient::connect("127.0.0.1", port);
  net::BeaconMsg beacon;
  beacon.player = player;
  client.send(beacon);
  for (;;) {
    const auto message = client.recv(10.0);
    if (!message) return;
    if (const auto* announcement =
            std::get_if<net::PaymentFunctionMsg>(&*message)) {
      const core::BestResponse response = core::best_response(
          satisfaction, cost, announcement->others_load_kw, util::kw(200.0));
      net::PowerRequestMsg request;
      request.player = player;
      request.round = announcement->round;
      request.total_kw = response.p_star;
      client.send(request);
    } else if (const auto* schedule =
                   std::get_if<net::ScheduleMsg>(&*message)) {
      *final_payment = schedule->payment;
    } else if (const auto* control = std::get_if<net::ControlMsg>(&*message)) {
      if (control->code == net::ControlCode::kConverged) return;
    }
  }
}

}  // namespace

int main() {
  obs::EnvSession obs_session;

  svc::ServiceConfig config;
  config.players = kWeights.size();
  config.sections = kSections;
  config.announce = true;
  config.batch_window_s = 0.0005;
  svc::PricingService service(make_cost(), config);
  std::printf("service: listening on 127.0.0.1:%u (%zu players, %zu sections)\n",
              static_cast<unsigned>(service.port()), kWeights.size(),
              kSections);
  std::thread server([&service] { service.run(); });

  std::vector<double> payments(kWeights.size(), 0.0);
  std::vector<std::thread> olevs;
  for (std::size_t n = 0; n < kWeights.size(); ++n) {
    olevs.emplace_back(drive_player, service.port(),
                       static_cast<std::uint32_t>(n), kWeights[n],
                       &payments[n]);
  }
  for (std::thread& olev : olevs) olev.join();
  service.request_stop();
  server.join();

  std::printf("service: converged=%s after %zu best-response updates\n",
              service.game_converged() ? "yes" : "no", service.game_updates());
  for (std::size_t n = 0; n < kWeights.size(); ++n) {
    std::printf("  OLEV %zu: weight %5.1f  row total %8.4f kW  payment %8.4f $/h\n",
                n, kWeights[n],
                service.schedule().row_total(n), payments[n]);
  }

  // Cross-check: the in-process bus-driven session must land on the exact
  // same fixed point -- the serving layer adds transport, not arithmetic.
  std::vector<core::PlayerSpec> players;
  for (const double w : kWeights) {
    core::PlayerSpec player;
    player.satisfaction = std::make_unique<core::LogSatisfaction>(w);
    player.p_max = util::kw(200.0);
    players.push_back(std::move(player));
  }
  const core::DistributedResult reference = core::run_distributed_game(
      std::move(players), make_cost(), kSections);
  const double diff =
      service.schedule().max_abs_diff(reference.schedule);
  std::printf("service: max |served - distributed| = %.17g %s\n", diff,
              diff == 0.0 ? "(bit-identical)" : "(MISMATCH)");
  return diff == 0.0 && service.game_converged() ? 0 : 1;
}
