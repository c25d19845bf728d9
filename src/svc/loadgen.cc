#include "svc/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>
#include <vector>

#include "net/message.h"
#include "obs/span.h"
#include "obs/strings.h"
#include "svc/client.h"
#include "util/rng.h"
#include "util/stats.h"

namespace olev::svc {
namespace {

struct WorkerResult {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t retry_later = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t draining = 0;
  std::uint64_t garbled = 0;
  std::uint64_t errors = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t session_resumed = 0;
  std::vector<double> latencies_us;
  // Server-reported phase timings, one entry per validated reply.
  std::vector<double> admit_us;
  std::vector<double> queue_us;
  std::vector<double> batch_us;
  std::vector<double> solve_us;
};

bool valid_schedule(const net::ScheduleMsg& schedule, std::uint32_t player,
                    std::uint64_t round, double requested_kw) {
  if (schedule.player != player || schedule.round != round) return false;
  if (schedule.row_kw.empty()) return false;
  double total = 0.0;
  for (const double entry : schedule.row_kw) {
    if (!std::isfinite(entry) || entry < 0.0) return false;
    total += entry;
  }
  // Water-filling never allocates more than the admitted request (Lemma
  // IV.1); a tiny epsilon absorbs the summation order.
  if (total > std::max(requested_kw, 0.0) + 1e-6) return false;
  return std::isfinite(schedule.payment) && schedule.payment >= -1e-9;
}

void run_worker(const LoadgenConfig& config, std::size_t index,
                WorkerResult& result) {
  const auto player = static_cast<std::uint32_t>(index % config.players);
  try {
    std::optional<ServiceClient> client = ServiceClient::connect(
        config.host, config.port, config.connect_timeout_s);
    net::BeaconMsg beacon;
    beacon.player = player;
    client->send(beacon);

    util::Rng rng(util::derive_seed(config.seed, index));
    for (std::size_t r = 0; r < config.requests_per_connection; ++r) {
      if (config.reconnect && r == config.requests_per_connection / 2 &&
          r > 0) {
        // Drop the transport, keep the player: the fresh beacon re-attaches
        // the binding and the server acknowledges with kSessionResumed.
        client.reset();
        client = ServiceClient::connect(config.host, config.port,
                                        config.connect_timeout_s);
        client->send(beacon);
        ++result.reconnects;
      }
      const double request_kw =
          rng.uniform(config.min_request_kw, config.max_request_kw);
      // Rounds are echo tokens; unique per request within this connection.
      const std::uint64_t round =
          static_cast<std::uint64_t>(index) * config.requests_per_connection +
          r;
      net::PowerRequestMsg request;
      request.player = player;
      request.round = round;
      request.total_kw = request_kw;
      // Trace context rides the wire and comes back on the ScheduleMsg with
      // the server's phase breakdown.  Nonzero so an un-echoed id is
      // distinguishable from a server that never saw the context.
      request.trace.trace_id = round + 1;

      std::size_t retries = 0;
      bool settled = false;
      while (!settled) {
        const std::int64_t sent_us = obs::now_micros();
        request.trace.client_send_us = sent_us;
        client->send(request);
        ++result.sent;
        bool answered = false;
        while (!answered) {
          const auto reply = client->recv(config.recv_timeout_s);
          if (!reply) {
            ++result.errors;  // timeout or peer gone mid-request
            return;
          }
          if (const auto* schedule = std::get_if<net::ScheduleMsg>(&*reply)) {
            if (schedule->round != round) continue;  // stale duplicate
            if (valid_schedule(*schedule, player, round, request_kw) &&
                schedule->trace_id == request.trace.trace_id) {
              ++result.ok;
              result.latencies_us.push_back(
                  static_cast<double>(obs::now_micros() - sent_us));
              result.admit_us.push_back(
                  static_cast<double>(schedule->phases.admit_us));
              result.queue_us.push_back(
                  static_cast<double>(schedule->phases.queue_us));
              result.batch_us.push_back(
                  static_cast<double>(schedule->phases.batch_us));
              result.solve_us.push_back(
                  static_cast<double>(schedule->phases.solve_us));
            } else {
              ++result.garbled;
            }
            answered = settled = true;
          } else if (const auto* control =
                         std::get_if<net::ControlMsg>(&*reply)) {
            switch (control->code) {
              case net::ControlCode::kRetryLater:
                if (control->round != round) continue;
                ++result.retry_later;
                if (++retries > config.max_retries_per_request) {
                  ++result.errors;
                  answered = settled = true;
                  break;
                }
                std::this_thread::sleep_for(std::chrono::microseconds(
                    static_cast<std::int64_t>(rng.uniform(200.0, 1000.0))));
                answered = true;  // resend from the outer loop
                break;
              case net::ControlCode::kDeadlineExpired:
                if (control->round != round) continue;
                ++result.deadline_expired;
                answered = settled = true;
                break;
              case net::ControlCode::kDraining:
                ++result.draining;
                return;  // server is going away; stop cleanly
              case net::ControlCode::kConverged:
                break;  // informational broadcast; keep waiting
              case net::ControlCode::kSessionResumed:
                // Re-attach acknowledgement (our own reconnect beacon, or a
                // second connection sharing this player id); informational.
                ++result.session_resumed;
                break;
              default:
                ++result.garbled;  // kMalformed/kBadRequest: we sent garbage?
                answered = settled = true;
                break;
            }
          }
          // PaymentFunctionMsg announcements are ignored: the loadgen plays
          // open-loop traffic, not best responses.
        }
      }
    }
  } catch (const std::exception&) {
    ++result.errors;
  }
}

}  // namespace

LoadgenReport run_loadgen(const LoadgenConfig& config) {
  std::vector<WorkerResult> results(config.connections);
  std::vector<std::thread> workers;
  workers.reserve(config.connections);
  const obs::Stopwatch wall;
  for (std::size_t i = 0; i < config.connections; ++i) {
    workers.emplace_back(run_worker, std::cref(config), i,
                         std::ref(results[i]));
  }
  for (std::thread& worker : workers) worker.join();

  LoadgenReport report;
  report.wall_s = wall.seconds();
  std::vector<double> latencies;
  std::vector<double> admit, queue, batch, solve;
  for (const WorkerResult& r : results) {
    report.requests_sent += r.sent;
    report.ok += r.ok;
    report.retry_later += r.retry_later;
    report.deadline_expired += r.deadline_expired;
    report.draining += r.draining;
    report.garbled += r.garbled;
    report.errors += r.errors;
    report.reconnects += r.reconnects;
    report.session_resumed += r.session_resumed;
    latencies.insert(latencies.end(), r.latencies_us.begin(),
                     r.latencies_us.end());
    admit.insert(admit.end(), r.admit_us.begin(), r.admit_us.end());
    queue.insert(queue.end(), r.queue_us.begin(), r.queue_us.end());
    batch.insert(batch.end(), r.batch_us.begin(), r.batch_us.end());
    solve.insert(solve.end(), r.solve_us.begin(), r.solve_us.end());
  }
  if (report.wall_s > 0.0) {
    report.requests_per_s =
        static_cast<double>(report.ok) / report.wall_s;
  }
  if (!latencies.empty()) {
    report.latency_p50_us = util::percentile(latencies, 50.0);
    report.latency_p95_us = util::percentile(latencies, 95.0);
    report.latency_p99_us = util::percentile(latencies, 99.0);
    report.latency_max_us = *std::max_element(latencies.begin(),
                                              latencies.end());
    report.server_admit_p50_us = util::percentile(admit, 50.0);
    report.server_admit_p95_us = util::percentile(admit, 95.0);
    report.server_queue_p50_us = util::percentile(queue, 50.0);
    report.server_queue_p95_us = util::percentile(queue, 95.0);
    report.server_batch_p50_us = util::percentile(batch, 50.0);
    report.server_batch_p95_us = util::percentile(batch, 95.0);
    report.server_solve_p50_us = util::percentile(solve, 50.0);
    report.server_solve_p95_us = util::percentile(solve, 95.0);
  }
  return report;
}

std::string LoadgenReport::to_json() const {
  // Through obs's one JSON writer: doubles print as the shortest decimal
  // that reads back bit for bit, and whole-µs latencies as integers.
  obs::JsonWriter json;
  json.begin_object();
  json.key("requests_sent").value(requests_sent);
  json.key("ok").value(ok);
  json.key("retry_later").value(retry_later);
  json.key("deadline_expired").value(deadline_expired);
  json.key("draining").value(draining);
  json.key("garbled").value(garbled);
  json.key("errors").value(errors);
  json.key("reconnects").value(reconnects);
  json.key("session_resumed").value(session_resumed);
  json.key("clean").value(clean());
  json.key("wall_s").value(wall_s);
  json.key("requests_per_s").value(requests_per_s);
  json.key("latency_p50_us").value(latency_p50_us);
  json.key("latency_p95_us").value(latency_p95_us);
  json.key("latency_p99_us").value(latency_p99_us);
  json.key("latency_max_us").value(latency_max_us);
  json.key("server_admit_p50_us").value(server_admit_p50_us);
  json.key("server_admit_p95_us").value(server_admit_p95_us);
  json.key("server_queue_p50_us").value(server_queue_p50_us);
  json.key("server_queue_p95_us").value(server_queue_p95_us);
  json.key("server_batch_p50_us").value(server_batch_p50_us);
  json.key("server_batch_p95_us").value(server_batch_p95_us);
  json.key("server_solve_p50_us").value(server_solve_p50_us);
  json.key("server_solve_p95_us").value(server_solve_p95_us);
  json.end_object();
  return std::move(json).str();
}

}  // namespace olev::svc
