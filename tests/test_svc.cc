// The serving layer: framing, protocol robustness (oversized / truncated
// frames, deadlines, backpressure, idle reaping, drain), concurrent load,
// and the bit-identity contract with the in-process distributed driver.
#include "svc/service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/best_response.h"
#include "core/distributed.h"
#include "core/satisfaction.h"
#include "net/message.h"
#include "svc/client.h"
#include "svc/frame.h"
#include "svc/loadgen.h"

namespace olev::svc {
namespace {

core::SectionCost make_cost(double cap = 40.0) {
  return core::SectionCost(
      std::make_unique<core::NonlinearPricing>(5.0, 0.875, cap),
      core::OverloadCost{1.0}, util::kw(cap));
}

/// Service on an ephemeral port driven by a background thread; stops and
/// joins on destruction so every test ends with a drained daemon.
struct ServiceRunner {
  explicit ServiceRunner(ServiceConfig config)
      : service(make_cost(), config),
        thread([this] { service.run(); }) {}

  ~ServiceRunner() { stop(); }

  void stop() {
    service.request_stop();
    if (thread.joinable()) thread.join();
  }

  ServiceClient connect() {
    return ServiceClient::connect("127.0.0.1", service.port());
  }

  PricingService service;
  std::thread thread;
};

ServiceConfig base_config(std::size_t players = 4, std::size_t sections = 2) {
  ServiceConfig config;
  config.players = players;
  config.sections = sections;
  config.batch_window_s = 0.001;
  return config;
}

net::PowerRequestMsg request_msg(std::uint32_t player, std::uint64_t round,
                                 double total_kw) {
  net::PowerRequestMsg request;
  request.player = player;
  request.round = round;
  request.total_kw = total_kw;
  return request;
}

// --- framing ---------------------------------------------------------------

TEST(Frame, RoundTripsAcrossArbitrarySplits) {
  const net::Message message = request_msg(3, 17, 42.5);
  const std::vector<std::uint8_t> frame = encode_frame(message);
  // Three frames back to back, fed one byte at a time.
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 3; ++i) {
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  FrameDecoder decoder(kDefaultMaxFrameBytes);
  std::size_t frames = 0;
  for (const std::uint8_t byte : stream) {
    ASSERT_TRUE(decoder.feed({&byte, 1}));
    while (const auto payload = decoder.next()) {
      const net::Message decoded = net::deserialize(*payload);
      EXPECT_EQ(std::get<net::PowerRequestMsg>(decoded),
                std::get<net::PowerRequestMsg>(message));
      ++frames;
    }
  }
  EXPECT_EQ(frames, 3u);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(Frame, OversizedHeaderPoisonsTheDecoder) {
  FrameDecoder decoder(64);
  const std::uint8_t header[kFrameHeaderBytes] = {0xff, 0xff, 0xff, 0x7f};
  EXPECT_FALSE(decoder.feed(header));
  EXPECT_TRUE(decoder.oversized());
  // Once poisoned, everything is rejected and nothing is buffered.
  const std::uint8_t more[] = {1, 2, 3};
  EXPECT_FALSE(decoder.feed(more));
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  EXPECT_FALSE(decoder.next().has_value());
}

// --- malformed input at the server -----------------------------------------

TEST(Service, OversizedFrameAnsweredAndConnectionClosed) {
  ServiceRunner runner(base_config());
  ServiceClient client = runner.connect();

  // Header alone condemns the stream: claims one byte past the frame cap.
  const std::uint32_t claimed =
      static_cast<std::uint32_t>(kDefaultMaxFrameBytes) + 1;
  std::uint8_t header[kFrameHeaderBytes];
  std::memcpy(header, &claimed, sizeof(claimed));
  client.send_raw(header);

  const auto reply = client.recv(5.0);
  ASSERT_TRUE(reply.has_value());
  const auto& control = std::get<net::ControlMsg>(*reply);
  EXPECT_EQ(control.code, net::ControlCode::kMalformed);
  EXPECT_FALSE(client.recv(5.0).has_value());
  EXPECT_TRUE(client.peer_closed());

  runner.stop();
  EXPECT_EQ(runner.service.stats().malformed_frames, 1u);
}

TEST(Service, TruncatedPayloadAnsweredAndConnectionClosed) {
  ServiceRunner runner(base_config());
  ServiceClient client = runner.connect();

  // A real message with its tail chopped off: the length prefix is
  // consistent, but the codec runs out of bytes mid-field.
  std::vector<std::uint8_t> frame = encode_frame(request_msg(1, 2, 3.0));
  frame.resize(frame.size() - 5);
  const std::uint32_t truncated_len =
      static_cast<std::uint32_t>(frame.size() - kFrameHeaderBytes);
  std::memcpy(frame.data(), &truncated_len, sizeof(truncated_len));
  client.send_raw(frame);

  const auto reply = client.recv(5.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(std::get<net::ControlMsg>(*reply).code,
            net::ControlCode::kMalformed);
  EXPECT_FALSE(client.recv(5.0).has_value());
  EXPECT_TRUE(client.peer_closed());

  runner.stop();
  EXPECT_EQ(runner.service.stats().malformed_frames, 1u);
}

TEST(Service, BadPlayerAndNonFiniteRequestsRejectedWithoutDisconnect) {
  ServiceRunner runner(base_config(/*players=*/4));
  ServiceClient client = runner.connect();

  client.send(request_msg(99, 7, 10.0));
  auto reply = client.recv(5.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(std::get<net::ControlMsg>(*reply).code,
            net::ControlCode::kBadRequest);
  EXPECT_EQ(std::get<net::ControlMsg>(*reply).round, 7u);

  client.send(request_msg(0, 8, std::nan("")));
  reply = client.recv(5.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(std::get<net::ControlMsg>(*reply).code,
            net::ControlCode::kBadRequest);

  // The session survives garbage *requests* (unlike garbage frames): a
  // well-formed one still gets scheduled.
  client.send(request_msg(0, 9, 25.0));
  reply = client.recv(5.0);
  ASSERT_TRUE(reply.has_value());
  const auto& schedule = std::get<net::ScheduleMsg>(*reply);
  EXPECT_EQ(schedule.player, 0u);
  EXPECT_EQ(schedule.round, 9u);
  EXPECT_EQ(schedule.row_kw.size(), 2u);
}

// --- deadlines, backpressure, drain ----------------------------------------

TEST(Service, DeadlineExpiryAnsweredExplicitly) {
  ServiceConfig config = base_config();
  config.batch_window_s = 5.0;  // never fires within the test
  config.request_deadline_s = 0.05;
  ServiceRunner runner(config);
  ServiceClient client = runner.connect();

  client.send(request_msg(1, 11, 20.0));
  const auto reply = client.recv(5.0);
  ASSERT_TRUE(reply.has_value());
  const auto& control = std::get<net::ControlMsg>(*reply);
  EXPECT_EQ(control.code, net::ControlCode::kDeadlineExpired);
  EXPECT_EQ(control.player, 1u);
  EXPECT_EQ(control.round, 11u);

  runner.stop();
  EXPECT_EQ(runner.service.stats().deadline_expired, 1u);
  EXPECT_EQ(runner.service.stats().requests_served, 0u);
}

TEST(Service, QueueFullAnswersRetryLaterAndDrainServesTheAdmitted) {
  ServiceConfig config = base_config();
  config.batch_window_s = 30.0;  // hold everything for the drain
  config.request_deadline_s = 30.0;
  config.max_queue = 2;
  ServiceRunner runner(config);
  ServiceClient client = runner.connect();

  client.send(request_msg(0, 1, 10.0));
  client.send(request_msg(0, 2, 10.0));
  client.send(request_msg(0, 3, 10.0));  // bounces off the full queue

  auto reply = client.recv(5.0);
  ASSERT_TRUE(reply.has_value());
  const auto& retry = std::get<net::ControlMsg>(*reply);
  EXPECT_EQ(retry.code, net::ControlCode::kRetryLater);
  EXPECT_EQ(retry.round, 3u);

  // Drain answers what was admitted, then says goodbye.
  runner.service.request_stop();
  for (std::uint64_t round = 1; round <= 2; ++round) {
    reply = client.recv(5.0);
    ASSERT_TRUE(reply.has_value());
    const auto& schedule = std::get<net::ScheduleMsg>(*reply);
    EXPECT_EQ(schedule.round, round);
  }
  reply = client.recv(5.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(std::get<net::ControlMsg>(*reply).code,
            net::ControlCode::kDraining);
  EXPECT_FALSE(client.recv(5.0).has_value());
  EXPECT_TRUE(client.peer_closed());

  runner.stop();
  EXPECT_EQ(runner.service.stats().retry_later, 1u);
  EXPECT_EQ(runner.service.stats().requests_served, 2u);
}

TEST(Service, DrainNotifiesIdleConnections) {
  ServiceRunner runner(base_config());
  ServiceClient client = runner.connect();
  // One served request first: proves the session is established (a stop
  // racing the TCP accept would otherwise close the listener before the
  // server ever saw us).
  client.send(request_msg(0, 1, 5.0));
  ASSERT_TRUE(client.recv(5.0).has_value());
  runner.service.request_stop();

  const auto reply = client.recv(5.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(std::get<net::ControlMsg>(*reply).code,
            net::ControlCode::kDraining);
  EXPECT_FALSE(client.recv(5.0).has_value());
  EXPECT_TRUE(client.peer_closed());
  runner.stop();
}

TEST(Service, IdleConnectionsAreReaped) {
  ServiceConfig config = base_config();
  config.idle_timeout_s = 0.05;
  ServiceRunner runner(config);
  ServiceClient client = runner.connect();

  // Say nothing; the server should hang up on us.
  EXPECT_FALSE(client.recv(2.0).has_value());
  EXPECT_TRUE(client.peer_closed());

  runner.stop();
  EXPECT_GE(runner.service.stats().connections_reaped, 1u);
}

// --- concurrency ------------------------------------------------------------

TEST(Service, SixtyFourConcurrentConnectionsRunClean) {
  ServiceConfig config = base_config(/*players=*/64, /*sections=*/8);
  ServiceRunner runner(config);

  LoadgenConfig load;
  load.port = runner.service.port();
  load.connections = 64;
  load.requests_per_connection = 10;
  load.players = 64;
  const LoadgenReport report = run_loadgen(load);

  EXPECT_TRUE(report.clean()) << report.to_json();
  EXPECT_EQ(report.ok, 640u);
  EXPECT_EQ(report.garbled, 0u);
  EXPECT_EQ(report.errors, 0u);

  runner.stop();
  EXPECT_EQ(runner.service.stats().requests_served, 640u);
  EXPECT_EQ(runner.service.stats().connections_accepted, 64u);
}

// --- mean-field engine mode (olevd --engine=meanfield) ----------------------

TEST(Service, MeanFieldSessionServesFlatRowsAndClosedFormPayments) {
  ServiceConfig config = base_config(/*players=*/3, /*sections=*/4);
  config.engine_mode = EngineMode::kMeanField;
  ServiceRunner runner(config);
  ServiceClient client = runner.connect();

  // Mean-field rows are the flat T-share spread p / C, and the payment is
  // the flat-field closed form C * [Z(T/C) - Z((T - p)/C)] (engine.h).
  client.send(request_msg(0, 1, 20.0));
  auto reply = client.recv(5.0);
  ASSERT_TRUE(reply.has_value());
  const auto& first = std::get<net::ScheduleMsg>(*reply);
  ASSERT_EQ(first.row_kw.size(), 4u);
  for (const double cell : first.row_kw) EXPECT_DOUBLE_EQ(cell, 20.0 / 4.0);
  const core::SectionCost cost = make_cost();
  const double expected_first = 4.0 * (cost.value(5.0) - cost.value(0.0));
  EXPECT_NEAR(first.payment, expected_first, 1e-9 * expected_first);

  // The second player prices against the field already carrying the first.
  client.send(request_msg(1, 2, 12.0));
  reply = client.recv(5.0);
  ASSERT_TRUE(reply.has_value());
  const auto& second = std::get<net::ScheduleMsg>(*reply);
  const double expected_second = 4.0 * (cost.value(8.0) - cost.value(5.0));
  EXPECT_NEAR(second.payment, expected_second, 1e-9 * expected_second);

  runner.stop();
  EXPECT_EQ(runner.service.stats().requests_served, 2u);
}

TEST(Service, MeanFieldSixtyFourConcurrentConnectionsRunClean) {
  ServiceConfig config = base_config(/*players=*/64, /*sections=*/8);
  config.engine_mode = EngineMode::kMeanField;
  ServiceRunner runner(config);

  LoadgenConfig load;
  load.port = runner.service.port();
  load.connections = 64;
  load.requests_per_connection = 10;
  load.players = 64;
  const LoadgenReport report = run_loadgen(load);

  EXPECT_TRUE(report.clean()) << report.to_json();
  EXPECT_EQ(report.ok, 640u);
  EXPECT_EQ(report.garbled, 0u);
  EXPECT_EQ(report.errors, 0u);

  runner.stop();
  EXPECT_EQ(runner.service.stats().requests_served, 640u);
}

// --- bit-identity with the in-process distributed driver --------------------

/// A lockstep best-response player: answers each announcement exactly like
/// core's OlevAgent, records its final schedule row and payment, exits on
/// the CONVERGED broadcast.
struct LockstepClient {
  std::vector<double> final_row;
  double final_payment = 0.0;
  bool saw_converged = false;

  void run(std::uint16_t port, std::uint32_t player, double weight,
           const core::SectionCost& cost) {
    const core::LogSatisfaction satisfaction(weight);
    ServiceClient client = ServiceClient::connect("127.0.0.1", port);
    net::BeaconMsg beacon;
    beacon.player = player;
    client.send(beacon);
    for (;;) {
      const auto message = client.recv(10.0);
      if (!message) return;
      if (const auto* announcement =
              std::get_if<net::PaymentFunctionMsg>(&*message)) {
        const core::BestResponse response =
            core::best_response(satisfaction, cost,
                                announcement->others_load_kw, util::kw(200.0));
        client.send(
            request_msg(player, announcement->round, response.p_star));
      } else if (const auto* schedule =
                     std::get_if<net::ScheduleMsg>(&*message)) {
        final_row = schedule->row_kw;
        final_payment = schedule->payment;
      } else if (const auto* control =
                     std::get_if<net::ControlMsg>(&*message)) {
        if (control->code == net::ControlCode::kConverged) {
          saw_converged = true;
          return;
        }
      }
    }
  }
};

TEST(Service, GridPacedSessionMatchesDistributedDriverBitExactly) {
  const std::vector<double> weights{10.0, 20.0, 15.0};

  // Reference: the in-process bus-driven session on a perfect link.
  std::vector<core::PlayerSpec> players;
  for (const double w : weights) {
    core::PlayerSpec player;
    player.satisfaction = std::make_unique<core::LogSatisfaction>(w);
    player.p_max = util::kw(200.0);
    players.push_back(std::move(player));
  }
  const core::DistributedResult reference = core::run_distributed_game(
      std::move(players), make_cost(), 3);
  ASSERT_TRUE(reference.converged);

  // Served: same game, grid-paced announcements over real sockets.
  ServiceConfig config;
  config.players = weights.size();
  config.sections = 3;
  config.announce = true;
  config.batch_window_s = 0.0005;
  ServiceRunner runner(config);

  const core::SectionCost cost = make_cost();
  std::vector<LockstepClient> clients(weights.size());
  std::vector<std::thread> threads;
  for (std::size_t n = 0; n < weights.size(); ++n) {
    threads.emplace_back([&, n] {
      clients[n].run(runner.service.port(), static_cast<std::uint32_t>(n),
                     weights[n], cost);
    });
  }
  for (std::thread& thread : threads) thread.join();
  runner.stop();

  ASSERT_TRUE(runner.service.game_converged());
  EXPECT_EQ(runner.service.game_updates(), reference.rounds);
  // Bit-exact: same update sequence, same arithmetic, zero tolerance.
  EXPECT_EQ(runner.service.schedule().max_abs_diff(reference.schedule), 0.0);
  ASSERT_EQ(reference.payments.size(), weights.size());
  for (std::size_t n = 0; n < weights.size(); ++n) {
    EXPECT_TRUE(clients[n].saw_converged) << "player " << n;
    EXPECT_EQ(clients[n].final_payment, reference.payments[n])
        << "player " << n;
    ASSERT_EQ(clients[n].final_row.size(), 3u);
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(clients[n].final_row[c], reference.schedule.row(n)[c])
          << "player " << n << " section " << c;
    }
  }
}

TEST(Service, PlayerBindingAfterConvergenceHearsConverged) {
  // CONVERGED is broadcast once, to the sessions bound at that moment; a
  // player that binds afterwards (a reconnect, or a client that was slow to
  // beacon after a resume) must still hear it instead of waiting out its
  // recv timeout.
  const std::vector<double> weights{10.0, 20.0, 15.0};
  ServiceConfig config;
  config.players = weights.size();
  config.sections = 3;
  config.announce = true;
  config.batch_window_s = 0.0005;
  ServiceRunner runner(config);

  const core::SectionCost cost = make_cost();
  std::vector<LockstepClient> clients(weights.size());
  std::vector<std::thread> threads;
  for (std::size_t n = 0; n < weights.size(); ++n) {
    threads.emplace_back([&, n] {
      clients[n].run(runner.service.port(), static_cast<std::uint32_t>(n),
                     weights[n], cost);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t n = 0; n < weights.size(); ++n) {
    ASSERT_TRUE(clients[n].saw_converged) << "player " << n;
  }

  ServiceClient late = runner.connect();
  net::BeaconMsg beacon;
  beacon.player = 1;
  late.send(beacon);
  bool saw_converged = false;
  while (const auto message = late.recv(2.0)) {
    const auto* control = std::get_if<net::ControlMsg>(&*message);
    if (control != nullptr && control->code == net::ControlCode::kConverged) {
      EXPECT_EQ(control->player, 1u);
      saw_converged = true;
      break;
    }
  }
  EXPECT_TRUE(saw_converged);
  runner.stop();
  EXPECT_TRUE(runner.service.game_converged());
}

}  // namespace
}  // namespace olev::svc
