// The telemetry plane: latency bucket layout, the wire-level phase
// decomposition, and the read-only admin endpoint (src/svc/admin.h) --
// snapshots must answer live while the service is under load.
#include "svc/admin.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/message.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "svc/client.h"
#include "svc/loadgen.h"
#include "svc/service.h"

namespace olev::svc {
namespace {

core::SectionCost make_cost(double cap = 40.0) {
  return core::SectionCost(
      std::make_unique<core::NonlinearPricing>(5.0, 0.875, cap),
      core::OverloadCost{1.0}, util::kw(cap));
}

ServiceConfig admin_config(std::size_t players = 4, std::size_t sections = 2) {
  ServiceConfig config;
  config.players = players;
  config.sections = sections;
  config.batch_window_s = 0.001;
  config.admin_enabled = true;
  return config;
}

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

  AdminClient connect_admin() {
    return AdminClient::connect("127.0.0.1", service.admin_port());
  }

  PricingService service;
  std::thread thread;
};

// --- bucket layout ---------------------------------------------------------

TEST(LatencyBuckets, ServiceRegistersTheDefaultLayout) {
  // Every service registers default_latency_bucket_edges_us() for the
  // request-latency histogram and the five phase histograms, so the layout
  // does not depend on which service in the process registered first.
  ServiceConfig config = admin_config();
  config.admin_enabled = false;
  PricingService service(make_cost(), config);
  const obs::MetricsSnapshot snap = obs::Registry::instance().snapshot();
  for (const char* name :
       {"svc.request.latency_us", "svc.phase.admit_us", "svc.phase.queue_us",
        "svc.phase.batch_us", "svc.phase.solve_us", "svc.phase.write_us"}) {
    bool found = false;
    for (const obs::HistogramSnapshot& h : snap.histograms) {
      if (h.name == name) {
        found = true;
        EXPECT_EQ(h.bounds, default_latency_bucket_edges_us()) << name;
      }
    }
    EXPECT_TRUE(found) << name;
  }
}

TEST(LatencyBuckets, DefaultEdgesResolveTheSub100usRegime) {
  // Pinned layout: changing it silently re-buckets every dashboard that
  // reads svc.request.latency_us / svc.phase.*_us.
  EXPECT_EQ(default_latency_bucket_edges_us(),
            (std::vector<double>{0, 10, 25, 50, 100, 250, 500, 1000, 2500,
                                 5000, 10000, 25000, 50000, 100000, 500000}));
}

// --- admin protocol ---------------------------------------------------------

TEST(Admin, DisabledByDefault) {
  ServiceConfig config = admin_config();
  config.admin_enabled = false;
  PricingService service(make_cost(), config);
  EXPECT_EQ(service.admin_port(), 0);
}

TEST(Admin, HealthEngineAndSnapshotAnswer) {
  ServiceRunner runner(admin_config());
  ASSERT_NE(runner.service.admin_port(), 0);
  AdminClient admin = runner.connect_admin();

  const std::string health = admin.request("health");
  EXPECT_NE(health.find("\"status\":\"serving\""), std::string::npos) << health;
  EXPECT_NE(health.find("\"queue_depth\":0"), std::string::npos) << health;

  const std::string engine = admin.request("engine");
  EXPECT_NE(engine.find("\"mode\":\"exact\""), std::string::npos) << engine;
  EXPECT_NE(engine.find("\"players\":4"), std::string::npos) << engine;
  EXPECT_NE(engine.find("\"converged\":false"), std::string::npos) << engine;
  EXPECT_NE(engine.find("\"residual\":"), std::string::npos) << engine;

  const std::string metrics = admin.request("metrics");
  EXPECT_NE(metrics.find("\"histograms\""), std::string::npos) << metrics;

  // One connection serves repeated polls; snapshot embeds all three planes.
  const std::string snapshot = admin.request("snapshot");
  EXPECT_NE(snapshot.find("\"health\":{"), std::string::npos);
  EXPECT_NE(snapshot.find("\"engine\":{"), std::string::npos);
  EXPECT_NE(snapshot.find("\"metrics\":{"), std::string::npos);

  const std::string error = admin.request("launch-the-missiles");
  EXPECT_NE(error.find("\"error\""), std::string::npos) << error;
}

TEST(Admin, FlightDumpReflectsServedRequests) {
  obs::flight::reset();
  ServiceRunner runner(admin_config());
  ServiceClient client = runner.connect();
  net::BeaconMsg beacon;
  beacon.player = 1;
  client.send(beacon);
  net::PowerRequestMsg request;
  request.player = 1;
  request.round = 7;
  request.total_kw = 10.0;
  client.send(request);
  const auto reply = client.recv();
  ASSERT_TRUE(reply.has_value());

  AdminClient admin = runner.connect_admin();
  const std::string flight = admin.request("flight");
  EXPECT_NE(flight.find("\"event\":\"admit\""), std::string::npos) << flight;
  EXPECT_NE(flight.find("\"event\":\"batch_fire\""), std::string::npos)
      << flight;
}

// --- wire-level phase decomposition -----------------------------------------

TEST(Phases, EchoedOnScheduleAndSumWithinEndToEnd) {
  ServiceRunner runner(admin_config());
  ServiceClient client = runner.connect();
  net::BeaconMsg beacon;
  beacon.player = 2;
  client.send(beacon);

  net::PowerRequestMsg request;
  request.player = 2;
  request.round = 3;
  request.total_kw = 12.0;
  request.trace.trace_id = 0xabcdef01;
  request.trace.client_send_us = 1234567;
  const std::int64_t sent_us = obs::now_micros();
  client.send(request);
  const auto reply = client.recv();
  const std::int64_t rtt_us = obs::now_micros() - sent_us;
  ASSERT_TRUE(reply.has_value());
  const auto* schedule = std::get_if<net::ScheduleMsg>(&*reply);
  ASSERT_NE(schedule, nullptr);

  // The trace id round-trips so clients can correlate replies.
  EXPECT_EQ(schedule->trace_id, 0xabcdef01u);
  // The batch window (1ms) dominates: the queue phase must show the wait,
  // and the whole server-side decomposition must fit inside the measured
  // round trip (it is a strict sub-interval of it).
  const std::uint64_t phase_sum_us =
      static_cast<std::uint64_t>(schedule->phases.admit_us) +
      schedule->phases.queue_us + schedule->phases.batch_us +
      schedule->phases.solve_us;
  EXPECT_GT(phase_sum_us, 0u);
  EXPECT_LE(phase_sum_us, static_cast<std::uint64_t>(rtt_us));
  EXPECT_GE(schedule->phases.queue_us, 500u);  // ~batch_window_s of waiting
}

TEST(Phases, LoadgenAggregatesServerPhases) {
  ServiceRunner runner(admin_config(/*players=*/8));
  LoadgenConfig load;
  load.port = runner.service.port();
  load.connections = 8;
  load.requests_per_connection = 16;
  load.players = 8;
  const LoadgenReport report = run_loadgen(load);
  EXPECT_TRUE(report.clean()) << report.to_json();
  EXPECT_EQ(report.ok, 8u * 16u);
  // The 1ms batch window shows up as server-side queue wait.
  EXPECT_GT(report.server_queue_p50_us, 0.0);
  // Schema pin: downstream tooling greps these keys out of --json output.
  const std::string json = report.to_json();
  for (const char* key :
       {"\"server_admit_p50_us\"", "\"server_admit_p95_us\"",
        "\"server_queue_p50_us\"", "\"server_queue_p95_us\"",
        "\"server_batch_p50_us\"", "\"server_batch_p95_us\"",
        "\"server_solve_p50_us\"", "\"server_solve_p95_us\"",
        "\"latency_p50_us\"", "\"latency_p95_us\"", "\"latency_p99_us\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing\n"
                                                 << json;
  }
  // Integers-safe formatting: no std::ostream 6-digit scientific collapse.
  EXPECT_EQ(json.find("e+0"), std::string::npos) << json;
}

// --- liveness under load -----------------------------------------------------

TEST(Admin, SnapshotsAnswerDuringConcurrentLoad) {
  ServiceRunner runner(admin_config(/*players=*/16));
  LoadgenConfig load;
  load.port = runner.service.port();
  load.connections = 16;
  load.requests_per_connection = 64;
  load.players = 16;

  std::thread loader([&] {
    const LoadgenReport report = run_loadgen(load);
    EXPECT_TRUE(report.clean()) << report.to_json();
  });
  AdminClient admin = runner.connect_admin();
  std::size_t answered = 0;
  for (int i = 0; i < 50; ++i) {
    const std::string snapshot = admin.request("snapshot");
    EXPECT_NE(snapshot.find("\"health\":{"), std::string::npos);
    ++answered;
  }
  loader.join();
  EXPECT_EQ(answered, 50u);
  // After the run, the phase histograms must actually be populated.
  const std::string metrics = admin.request("metrics");
  EXPECT_NE(metrics.find("svc.phase.queue_us"), std::string::npos);
  EXPECT_NE(metrics.find("svc.phase.solve_us"), std::string::npos);
}

// --- the durable state plane surfaces through the telemetry plane -----------

TEST(Admin, PersistMetricsAndFlightEventsSurfaceAcrossAResume) {
  const std::string snap_path =
      ::testing::TempDir() + "olev_admin_persist_snap.bin";
  const std::string journal_path =
      ::testing::TempDir() + "olev_admin_persist_journal.bin";
  std::remove(snap_path.c_str());
  std::remove(journal_path.c_str());

  obs::flight::reset();
  ServiceConfig config = admin_config();
  config.snapshot_path = snap_path;
  config.journal_path = journal_path;
  {
    ServiceRunner runner(config);
    ServiceClient client = runner.connect();
    net::BeaconMsg beacon;
    beacon.player = 0;
    client.send(beacon);
    net::PowerRequestMsg request;
    request.player = 0;
    request.round = 1;
    request.total_kw = 25.0;
    request.trace.trace_id = 11;
    client.send(request);
    ASSERT_TRUE(client.recv().has_value());
    runner.stop();  // drain -> journal flush + snapshot save
    EXPECT_EQ(runner.service.stats().snapshots_saved, 1u);
    EXPECT_EQ(runner.service.stats().journal_records, 1u);
  }

  // Resume: the admin plane must expose the load/save metrics, the flight
  // ring must show the persistence events, and the engine JSON must carry
  // the resume fields the CI persist job asserts on.
  ServiceConfig resumed_config = config;
  resumed_config.resume = true;
  resumed_config.journal_path.clear();  // second boot: snapshot plane only
  ServiceRunner resumed(resumed_config);
  ServiceClient reattach = resumed.connect();
  net::BeaconMsg beacon;
  beacon.player = 0;  // bound in the snapshot -> session_resume event
  reattach.send(beacon);
  const auto notice = reattach.recv();
  ASSERT_TRUE(notice.has_value());

  AdminClient admin = resumed.connect_admin();
  const std::string metrics = admin.request("metrics");
  for (const char* name :
       {"persist.snapshot.bytes", "persist.snapshot.save_us",
        "persist.snapshot.load_us", "persist.journal.records"}) {
    EXPECT_NE(metrics.find(name), std::string::npos) << name << "\n" << metrics;
  }

  const std::string flight = admin.request("flight");
  for (const char* event :
       {"\"event\":\"snapshot_save\"", "\"event\":\"snapshot_load\"",
        "\"event\":\"session_resume\""}) {
    EXPECT_NE(flight.find(event), std::string::npos) << event << "\n" << flight;
  }

  const std::string engine = admin.request("engine");
  EXPECT_NE(engine.find("\"resumed\":true"), std::string::npos) << engine;
  EXPECT_NE(engine.find("\"sessions_resumed\":1"), std::string::npos) << engine;
  EXPECT_NE(engine.find("\"updates\":1"), std::string::npos) << engine;

  resumed.stop();
  std::remove(snap_path.c_str());
  std::remove(journal_path.c_str());
}

}  // namespace
}  // namespace olev::svc
