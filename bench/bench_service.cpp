// Serving-layer throughput/latency at several batch windows.
//
// Spins up an in-process PricingService on an ephemeral loopback port, runs
// the load generator against it at each batching window, and reports
// requests/sec plus p50/p99 latency; exits 1 on an unclean run.  Served
// latency is compared across commits by perfbench's serve_exact workload
// and its traced svc.engine.apply_p50_us (perfbench/README.md).
//
//   $ ./bench_service

#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/cost.h"
#include "svc/loadgen.h"
#include "svc/service.h"
#include "util/csv.h"

namespace {

using namespace olev;

constexpr std::size_t kConnections = 16;
constexpr std::size_t kRequestsPerConnection = 100;

core::SectionCost make_cost() {
  return core::SectionCost(
      std::make_unique<core::NonlinearPricing>(5.0, 0.875, 40.0),
      core::OverloadCost{1.0}, util::kw(40.0));
}

struct Point {
  double window_us = 0.0;
  svc::LoadgenReport report;
  std::uint64_t batches = 0;
  std::uint64_t max_batch = 0;
};

Point run_window(double window_us) {
  svc::ServiceConfig config;
  config.players = kConnections;
  config.sections = 8;
  config.batch_window_s = window_us * 1e-6;
  svc::PricingService service(make_cost(), config);
  std::thread server([&service] { service.run(); });

  svc::LoadgenConfig load;
  load.port = service.port();
  load.connections = kConnections;
  load.requests_per_connection = kRequestsPerConnection;
  load.players = kConnections;

  Point point;
  point.window_us = window_us;
  point.report = svc::run_loadgen(load);
  service.request_stop();
  server.join();
  point.batches = service.stats().batches;
  point.max_batch = service.stats().max_batch_size;
  return point;
}

}  // namespace

int main() {
  const std::vector<double> windows_us{0.0, 500.0, 2000.0, 10000.0};
  std::vector<Point> points;
  points.reserve(windows_us.size());
  for (const double window : windows_us) {
    points.push_back(run_window(window));
    const Point& p = points.back();
    if (!p.report.clean()) {
      std::cerr << "bench_service: UNCLEAN run at window " << window
                << "us\n" << p.report.to_json() << "\n";
      return 1;
    }
  }

  util::Table table({"window_us", "req_per_s", "p50_us", "p99_us", "max_us",
                     "batches", "max_batch"});
  for (const Point& p : points) {
    table.add_row_numeric({p.window_us, p.report.requests_per_s,
                           p.report.latency_p50_us, p.report.latency_p99_us,
                           p.report.latency_max_us,
                           static_cast<double>(p.batches),
                           static_cast<double>(p.max_batch)});
  }
  bench::emit(table, "bench_service");

  return 0;
}
