// Concurrent load generator for the pricing service: N connections, each a
// thread-driven player issuing power requests and validating every reply.
// Used by the olev_loadgen CLI (and through it the e2e ctest entries),
// bench_service, and the concurrency test -- the acceptance bar is
// `LoadgenReport::clean()` under >= 64 concurrent connections.
#pragma once

#include <cstdint>
#include <string>

namespace olev::svc {

struct LoadgenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t connections = 8;
  std::size_t requests_per_connection = 32;
  /// Player universe on the server; connection i binds player i % players.
  std::size_t players = 8;
  double min_request_kw = 1.0;
  double max_request_kw = 120.0;
  double recv_timeout_s = 10.0;
  double connect_timeout_s = 5.0;
  std::size_t max_retries_per_request = 1000;  ///< RETRY_LATER resend budget
  std::uint64_t seed = 42;
  /// Exercise the durable-session re-attach path: each worker drops its
  /// connection halfway through its request budget, reconnects, and
  /// re-presents its player id with a fresh beacon -- the server answers
  /// kSessionResumed and the worker keeps going on the same player binding.
  bool reconnect = false;
};

struct LoadgenReport {
  std::uint64_t requests_sent = 0;  ///< includes RETRY_LATER resends
  std::uint64_t ok = 0;             ///< validated ScheduleMsg replies
  std::uint64_t retry_later = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t draining = 0;
  std::uint64_t garbled = 0;  ///< reply failed validation (wrong player/round,
                              ///< non-finite row, negative entries, ...)
  std::uint64_t errors = 0;   ///< connect/send/recv failures, retry exhaustion
  std::uint64_t reconnects = 0;       ///< mid-run reconnects (reconnect mode)
  std::uint64_t session_resumed = 0;  ///< kSessionResumed notices received
  double wall_s = 0.0;
  double requests_per_s = 0.0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_max_us = 0.0;

  // Server-reported phase decomposition (net::PhaseTimings riding back on
  // each ScheduleMsg): where a request's time went inside olevd -- admission
  // parse, queue wait, batch coalescing wait, and the engine solve.
  // Percentiles cover validated replies only, same as the latency fields.
  double server_admit_p50_us = 0.0;
  double server_admit_p95_us = 0.0;
  double server_queue_p50_us = 0.0;
  double server_queue_p95_us = 0.0;
  double server_batch_p50_us = 0.0;
  double server_batch_p95_us = 0.0;
  double server_solve_p50_us = 0.0;
  double server_solve_p95_us = 0.0;

  /// Every request answered with a valid schedule, nothing dropped or
  /// garbled.  RETRY_LATER / DEADLINE_EXPIRED are explicit, well-formed
  /// outcomes but count against a "clean" run only when they starve a
  /// request entirely (errors > 0 covers that via retry exhaustion).
  bool clean() const { return garbled == 0 && errors == 0; }

  /// One compact JSON object (olev_loadgen's output), keys in field order.
  std::string to_json() const;
};

/// Runs the workload to completion (blocking) and aggregates per-thread
/// results.  Latency percentiles cover validated replies only.
LoadgenReport run_loadgen(const LoadgenConfig& config);

}  // namespace olev::svc
