// olevd's serving core: the pricing game as a long-lived TCP service.
//
// One PricingService = one listening socket + one PricingEngine (the online
// best-response state).  The event loop is single-threaded and non-blocking
// (poll(2) over the listener and every session), which keeps the game state
// lock-free and the request application order deterministic.
//
// Protocol (length-prefixed net::Message frames, svc/frame.h):
//   client -> grid : BeaconMsg        binds the connection to a player id
//   client -> grid : PowerRequestMsg  total power request p_n (round echoes)
//   grid -> client : ScheduleMsg      water-filled row + externality payment
//   grid -> client : PaymentFunctionMsg  grid-paced announcement (announce
//                    mode): the b vector the next best response is against
//   grid -> client : ControlMsg       backpressure / errors / lifecycle
//                    (RETRY_LATER, DEADLINE_EXPIRED, MALFORMED, BAD_REQUEST,
//                    DRAINING, CONVERGED)
//
// Batching: requests are admitted into a bounded queue and applied in one
// best-response round when the oldest request has waited batch_window_s or
// the queue reached max_batch -- each entry sequentially against the
// then-current schedule (Theorem IV.1's asynchronous update), responses fan
// back out afterwards.  A full queue answers RETRY_LATER immediately instead
// of blocking; a request older than its deadline is answered
// DEADLINE_EXPIRED instead of being applied.
//
// Robustness: bounded read buffers with oversized/malformed-frame rejection,
// bounded write buffers (a sink-slow client is dropped, not buffered
// forever), idle-connection reaping, and graceful drain on request_stop():
// the listener closes, queued requests are answered, every session gets a
// DRAINING notice, and run() returns once the flushes complete (or the drain
// deadline forces the issue).
//
// Telemetry: every request is decomposed into admit -> queue -> batch ->
// solve -> write phases; the first four ride back to the client on the
// ScheduleMsg (net::PhaseTimings) and all five feed `svc.phase.*_us`
// histograms.  An optional admin plane (ServiceConfig::admin_enabled) runs a
// second read-only loopback listener on the same poll loop answering line
// commands with one-line JSON snapshots -- metrics registry, engine/round
// state, health, flight-recorder dump (docs/SERVING.md, "Admin protocol").
// Request-lifecycle events (admit, batch fire, backpressure, expiry, drain)
// are recorded into the obs flight recorder as they happen.
//
// Thread-safety contract (docs/ANALYSIS.md "Thread-safety contract"): this
// layer holds NO mutex by design.  Every field below is confined to the
// run() thread; the only cross-thread entry points are request_stop() (one
// relaxed atomic store, signal-safe) and the post-run accessors, which are
// valid once run() has returned (the join is the synchronization point).
// The multi-threaded machinery underneath -- the sweep pool, the metrics
// registry, the tracer -- lives behind the capability-annotated wrappers of
// util/sync.h; when the planned sharded multi-engine daemon pulls
// PricingEngine out from behind this single admission queue, its shared
// state must go through olev::Mutex + OLEV_GUARDED_BY, not raw std::mutex
// (lint rule R6 enforces the latter mechanically).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/cost.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "obs/strings.h"
#include "persist/journal.h"
#include "svc/engine.h"
#include "svc/frame.h"
#include "svc/socket.h"

namespace olev::svc {

/// Upper bucket edges (µs) that every PricingService registers for
/// `svc.request.latency_us` and the per-phase `svc.phase.*_us` histograms.
/// The sub-100µs edges resolve the regime a 0µs-window loopback service
/// actually serves in (~100k rps lands most requests below 100µs, where the
/// old coarse layout lumped everything into two buckets).
/// tests/test_admin.cc pins this layout.
std::vector<double> default_latency_bucket_edges_us();

struct ServiceConfig {
  std::uint16_t port = 0;  ///< 0 = kernel-assigned (read back via port())
  std::size_t players = 0;
  std::size_t sections = 0;
  double epsilon = 1e-7;
  std::vector<double> caps_kw;  ///< per-player admission caps; empty = none
  /// Pricing arithmetic: the exact N-player update or the O(C) mean-field
  /// update (olevd --engine=meanfield).  See EngineMode.
  EngineMode engine_mode = EngineMode::kExact;

  // Batching core.
  double batch_window_s = 0.002;  ///< coalescing window for one round
  std::size_t max_batch = 64;     ///< apply at most this many per round
  std::size_t max_queue = 1024;   ///< admission bound; beyond = RETRY_LATER
  double request_deadline_s = 1.0;

  // Robustness.
  double idle_timeout_s = 60.0;  ///< reap silent connections; <= 0 disables

  // Grid-paced mode: once every player's session has bound, the service
  // announces payment functions round-robin (Section IV-D) and broadcasts
  // CONVERGED at the fixed point.
  bool announce = false;

  // Observability.
  /// Read-only admin/telemetry plane (docs/SERVING.md, "Admin protocol"):
  /// a second loopback listener answering line commands ("snapshot",
  /// "health", "engine", "metrics", "flight") with one-line JSON.  Off by
  /// default; olevd enables it with --admin-port.
  bool admin_enabled = false;
  std::uint16_t admin_port = 0;  ///< 0 = kernel-assigned (read admin_port())

  // Durable state plane (docs/PERSISTENCE.md).
  /// Non-empty arms drain-then-persist: begin_drain() writes a versioned
  /// snapshot here (atomic tmp+rename) after the last admitted request is
  /// answered.  olevd --snapshot-path.
  std::string snapshot_path;
  /// Load snapshot_path at construction and resume the grid-paced round at
  /// the exact announce cursor (olevd --resume).  The snapshot's engine
  /// shape (mode/players/sections/epsilon/caps) must match this config
  /// bit-for-bit or the constructor throws.
  bool resume = false;
  /// Non-empty opens a request journal here: every applied request is
  /// appended, in apply order, with its TraceContext, before its reply is
  /// sent (olevd --journal; tools/olev_replay feeds it back
  /// deterministically).  Requests that expire unapplied are not journaled.
  std::string journal_path;
  persist::FsyncPolicy journal_fsync = persist::FsyncPolicy::kOnFlush;
};

/// Plain counters, readable after run() returns (the loop is single-
/// threaded; obs-registry mirrors of the interesting ones are exported live).
struct ServiceStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t connections_reaped = 0;  ///< idle-timeout subset of closed
  std::uint64_t frames_received = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t malformed_frames = 0;
  std::uint64_t bad_requests = 0;
  std::uint64_t requests_received = 0;
  std::uint64_t requests_served = 0;
  std::uint64_t retry_later = 0;
  std::uint64_t deadline_expired = 0;
  std::uint64_t drain_rejected = 0;
  std::uint64_t batches = 0;
  std::uint64_t max_batch_size = 0;
  std::uint64_t announce_retransmissions = 0;
  std::uint64_t write_overflows = 0;
  std::uint64_t admin_connections = 0;
  std::uint64_t admin_requests = 0;
  std::uint64_t sessions_resumed = 0;  ///< kSessionResumed notices sent
  std::uint64_t snapshots_saved = 0;
  std::uint64_t snapshot_save_failures = 0;
  std::uint64_t journal_records = 0;
  std::uint64_t journal_failures = 0;  ///< append/flush errors (journal closes)
};

class PricingService {
 public:
  /// Binds the listener immediately (so port() is valid before run()).
  PricingService(core::SectionCost cost, ServiceConfig config);
  ~PricingService();

  PricingService(const PricingService&) = delete;
  PricingService& operator=(const PricingService&) = delete;

  std::uint16_t port() const { return port_; }
  /// Resolved admin-plane port; 0 when the admin plane is disabled.
  std::uint16_t admin_port() const { return admin_port_; }

  /// Serves until request_stop() and the subsequent drain complete.
  void run();

  /// Thread-safe (and signal-safe: one relaxed atomic store); run() notices
  /// within one poll timeout.
  void request_stop() { stop_requested_.store(true, std::memory_order_relaxed); }

  // Post-run (or externally-synchronized) inspection.
  const ServiceStats& stats() const { return stats_; }
  const core::PowerSchedule& schedule() const { return engine_.schedule(); }
  bool game_converged() const { return engine_.converged(); }
  std::size_t game_updates() const { return engine_.updates(); }
  /// True when this instance restored its state from a snapshot.
  bool resumed() const { return resumed_; }

 private:
  struct Session;
  struct AdminSession;
  struct PendingRequest {
    std::shared_ptr<Session> session;
    std::uint32_t player = 0;
    std::uint64_t round = 0;
    double total_kw = 0.0;
    std::int64_t arrival_us = 0;
    std::int64_t deadline_us = 0;
    std::int64_t admit_done_us = 0;  ///< enqueue stamp (ends the admit phase)
    net::TraceContext trace;         ///< echoed on the ScheduleMsg reply
  };

  void accept_new_connections();
  void read_session(const std::shared_ptr<Session>& session,
                    std::int64_t now_us);
  void dispatch(const std::shared_ptr<Session>& session,
                const net::Message& message, std::int64_t now_us);
  void send_message(const std::shared_ptr<Session>& session,
                    const net::Message& message);
  void flush_session(Session& session);
  void fail_session(const std::shared_ptr<Session>& session,
                    net::ControlCode code);
  void expire_overdue(std::int64_t now_us);
  void run_batch(std::int64_t now_us);
  void maybe_announce(std::int64_t now_us);
  void send_converged(const std::shared_ptr<Session>& session);
  void begin_drain(std::int64_t now_us);
  void reap_idle(std::int64_t now_us);
  void remove_dead_sessions();
  int next_timeout_ms(std::int64_t now_us) const;
  std::shared_ptr<Session> bound_session(std::size_t player) const;

  // Durable state plane (docs/PERSISTENCE.md): snapshot restore at boot,
  // drain-then-persist at shutdown.  Both cold paths.
  void load_snapshot();
  void save_snapshot();

  // Admin plane (read-only; confined to the run() thread like everything
  // else, so snapshots need no synchronization with the engine).
  void accept_admin_connections();
  void read_admin(AdminSession& session);
  void flush_admin(AdminSession& session);
  void remove_dead_admin_sessions();
  std::string admin_reply(std::string_view command) const;
  void write_health(obs::JsonWriter& json) const;
  void write_engine(obs::JsonWriter& json) const;

  // All confined to the run() thread (see the thread-safety contract in the
  // header comment); stop_requested_ is the one cross-thread flag.
  core::SectionCost cost_;
  ServiceConfig config_;
  PricingEngine engine_;
  Socket listener_;
  std::uint16_t port_ = 0;
  Socket admin_listener_;
  std::uint16_t admin_port_ = 0;
  std::vector<std::shared_ptr<Session>> sessions_;
  std::vector<std::shared_ptr<AdminSession>> admin_sessions_;
  std::deque<PendingRequest> queue_;
  ServiceStats stats_;
  std::atomic<bool> stop_requested_{false};
  std::int64_t started_us_ = 0;
  std::size_t last_batch_size_ = 0;

  // Request-latency and phase histograms, registered once at construction
  // with the config's bucket edges.  Null only when OLEV_OBS is compiled
  // out (the pointers then stay unused).
  obs::Histogram* latency_hist_ = nullptr;
  obs::Histogram* phase_admit_hist_ = nullptr;
  obs::Histogram* phase_queue_hist_ = nullptr;
  obs::Histogram* phase_batch_hist_ = nullptr;
  obs::Histogram* phase_solve_hist_ = nullptr;
  obs::Histogram* phase_write_hist_ = nullptr;

  // Drain state.
  bool draining_ = false;
  std::int64_t drain_deadline_us_ = 0;

  // Grid-paced announcement state.
  std::size_t bound_players_ = 0;
  bool announcing_started_ = false;
  bool announce_inflight_ = false;
  bool announce_answered_ = false;
  std::uint32_t announced_player_ = 0;
  std::uint64_t announced_round_ = 0;
  std::int64_t announced_at_us_ = 0;
  bool converged_broadcast_ = false;

  // Durable state plane.  known_players_[p] is set once player p has ever
  // bound (this boot or, after --resume, any earlier one): a later beacon
  // for a known player is a re-attach and is greeted with kSessionResumed
  // instead of silence -- the round resumes without waiting for idle-reap.
  std::vector<bool> known_players_;
  std::unique_ptr<persist::JournalWriter> journal_;
  bool resumed_ = false;
};

}  // namespace olev::svc
