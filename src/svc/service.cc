#include "svc/service.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "net/message.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "obs/report.h"
#include "obs/strings.h"
#include "persist/snapshot.h"

namespace olev::svc {
namespace {

constexpr std::size_t kReadChunkBytes = 16 * 1024;
/// Outgoing bytes one connection may have queued before it is dropped as a
/// slow consumer.
constexpr std::size_t kMaxWriteBufferBytes = 4u << 20;
/// How long a drain waits for queued replies to flush before it closes.
constexpr double kDrainTimeoutS = 5.0;
/// Re-announce into silence (a lost client) after this long.
constexpr double kAnnounceRetryS = 1.0;
/// Admin command lines are tiny ("snapshot\n"); anything longer is garbage.
constexpr std::size_t kMaxAdminLineBytes = 256;

std::int64_t micros(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e6);
}

/// Phase durations ride the wire as u32 µs; clamp instead of wrapping (a
/// negative delta can only come from clock-source skew, a >71min phase from
/// a stalled clock -- both saturate rather than lie).
std::uint32_t phase_us(std::int64_t delta_us) {
  if (delta_us <= 0) return 0;
  if (delta_us >= std::numeric_limits<std::uint32_t>::max()) {
    return std::numeric_limits<std::uint32_t>::max();
  }
  return static_cast<std::uint32_t>(delta_us);
}

/// Bit-pattern equality for snapshot-vs-config validation: the resume
/// contract is bit-identity, so "same epsilon" means the same 8 bytes, not
/// a tolerance (and NaN-safe, unlike operator==).
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::uint8_t mode_byte(EngineMode mode) {
  return mode == EngineMode::kMeanField ? 1 : 0;
}

}  // namespace

std::vector<double> default_latency_bucket_edges_us() {
  return {0,    10,    25,    50,    100,    250,    500,    1000,
          2500, 5000, 10000, 25000, 50000, 100000, 500000};
}

/// One connected client: its socket, the framing decoder for its byte
/// stream, a bounded outgoing buffer, and the player binding (if any).
struct PricingService::Session {
  explicit Session(Socket sock) : socket(std::move(sock)) {}

  Socket socket;
  FrameDecoder decoder;  ///< capped at kDefaultMaxFrameBytes
  std::vector<std::uint8_t> outbuf;
  std::size_t outbuf_offset = 0;
  std::int64_t last_activity_us = 0;
  bool has_player = false;
  std::uint32_t player = 0;
  bool closing = false;  ///< stop reading; close once outbuf flushes
  bool dead = false;     ///< close now; queued entries must not respond

  std::size_t pending_out() const { return outbuf.size() - outbuf_offset; }
};

/// One admin-plane client: newline-delimited text commands in, one line of
/// JSON out per command.  Read-only and confined to the run() thread.
struct PricingService::AdminSession {
  explicit AdminSession(Socket sock) : socket(std::move(sock)) {}

  Socket socket;
  std::string inbuf;
  std::string outbuf;
  std::size_t outbuf_offset = 0;
  bool dead = false;

  std::size_t pending_out() const { return outbuf.size() - outbuf_offset; }
};

PricingService::PricingService(core::SectionCost cost, ServiceConfig config)
    : cost_(std::move(cost)),
      config_(std::move(config)),
      engine_(cost_,
              EngineConfig{config_.players, config_.sections, config_.epsilon,
                           config_.caps_kw, config_.engine_mode}),
      listener_(listen_on(config_.port)),
      port_(local_port(listener_)) {
  if (config_.max_batch == 0 || config_.max_queue == 0) {
    throw std::invalid_argument("PricingService: max_batch/max_queue must be > 0");
  }
  if (config_.admin_enabled) {
    admin_listener_ = listen_on(config_.admin_port);
    admin_port_ = local_port(admin_listener_);
  }
  known_players_.assign(config_.players, false);
  if (config_.resume) {
    if (config_.snapshot_path.empty()) {
      throw std::invalid_argument(
          "PricingService: resume requires a snapshot_path");
    }
    load_snapshot();
  }
  if (!config_.journal_path.empty()) {
    persist::JournalHeader header;
    header.mode = mode_byte(config_.engine_mode);
    header.players = config_.players;
    header.sections = config_.sections;
    header.epsilon = config_.epsilon;
    header.caps_kw = engine_.caps_kw();
    journal_ = std::make_unique<persist::JournalWriter>(
        config_.journal_path, header, config_.journal_fsync);
  }
  started_us_ = obs::now_micros();
  OLEV_OBS_ONLY({
    obs::Registry& registry = obs::Registry::instance();
    const std::vector<double> edges = default_latency_bucket_edges_us();
    latency_hist_ = &registry.histogram("svc.request.latency_us", edges);
    phase_admit_hist_ = &registry.histogram("svc.phase.admit_us", edges);
    phase_queue_hist_ = &registry.histogram("svc.phase.queue_us", edges);
    phase_batch_hist_ = &registry.histogram("svc.phase.batch_us", edges);
    phase_solve_hist_ = &registry.histogram("svc.phase.solve_us", edges);
    phase_write_hist_ = &registry.histogram("svc.phase.write_us", edges);
  });
}

PricingService::~PricingService() = default;

void PricingService::load_snapshot() {
  const persist::ServiceSnapshot snapshot =
      persist::load(config_.snapshot_path);
  const persist::EngineSnapshot& engine = snapshot.engine;
  if (engine.mode != mode_byte(config_.engine_mode) ||
      engine.players != config_.players ||
      engine.sections != config_.sections) {
    throw std::runtime_error(
        "PricingService: snapshot engine shape does not match config");
  }
  if (!same_bits({engine.epsilon}, {config_.epsilon}) ||
      !same_bits(engine.caps_kw, engine_.caps_kw())) {
    // Bit-identity of the resumed round depends on epsilon and the caps as
    // much as on the schedule itself; a drifted config must fail loudly.
    throw std::runtime_error(
        "PricingService: snapshot epsilon/caps do not match config");
  }
  engine_.restore_state(engine.schedule_kw, engine.updates, engine.residual,
                        engine.converged != 0, engine.total_load_kw);
  announcing_started_ = snapshot.announcing_started != 0;
  converged_broadcast_ = snapshot.converged_broadcast != 0;
  for (const std::uint32_t player : snapshot.bound_players) {
    known_players_[player] = true;
  }
  resumed_ = true;
}

void PricingService::save_snapshot() {
  persist::ServiceSnapshot snapshot;
  persist::EngineSnapshot& engine = snapshot.engine;
  engine.mode = mode_byte(config_.engine_mode);
  engine.players = config_.players;
  engine.sections = config_.sections;
  engine.epsilon = config_.epsilon;
  engine.caps_kw = engine_.caps_kw();
  const std::span<const double> flat = engine_.schedule().flat();
  engine.schedule_kw.assign(flat.begin(), flat.end());
  engine.updates = engine_.updates();
  engine.residual = engine_.residual();
  engine.converged = engine_.converged() ? 1 : 0;
  engine.total_load_kw = engine_.total_load_kw();
  snapshot.announcing_started = announcing_started_ ? 1 : 0;
  snapshot.converged_broadcast = converged_broadcast_ ? 1 : 0;
  for (std::uint32_t player = 0; player < config_.players; ++player) {
    if (known_players_[player]) snapshot.bound_players.push_back(player);
  }
  persist::save(config_.snapshot_path, snapshot);
}

std::shared_ptr<PricingService::Session> PricingService::bound_session(
    std::size_t player) const {
  // Linear scan: session counts are poll(2)-scale, and the newest binding
  // wins (a reconnecting player displaces its stale session).
  std::shared_ptr<Session> found;
  for (const auto& session : sessions_) {
    if (!session->dead && session->has_player && session->player == player) {
      found = session;
    }
  }
  return found;
}

void PricingService::send_message(const std::shared_ptr<Session>& session,
                                  const net::Message& message) {
  if (session->dead) return;
  const std::vector<std::uint8_t> frame = encode_frame(message);
  if (session->pending_out() + frame.size() > kMaxWriteBufferBytes) {
    // The peer is not draining its socket; buffering without bound would let
    // one slow client hold the schedule's memory hostage.
    ++stats_.write_overflows;
    session->dead = true;
    return;
  }
  session->outbuf.insert(session->outbuf.end(), frame.begin(), frame.end());
  ++stats_.frames_sent;
  flush_session(*session);
}

void PricingService::flush_session(Session& session) {
  while (session.pending_out() > 0) {
    const std::span<const std::uint8_t> chunk(
        session.outbuf.data() + session.outbuf_offset, session.pending_out());
    const IoResult io = write_some(session.socket.fd(), chunk);
    if (io.closed) {
      session.dead = true;
      return;
    }
    if (io.would_block || io.bytes == 0) return;
    session.outbuf_offset += io.bytes;
    stats_.bytes_sent += io.bytes;
  }
  session.outbuf.clear();
  session.outbuf_offset = 0;
  if (session.closing) session.dead = true;
}

void PricingService::fail_session(const std::shared_ptr<Session>& session,
                                  net::ControlCode code) {
  net::ControlMsg notice;
  notice.code = code;
  notice.player = session->has_player ? session->player : 0;
  send_message(session, notice);
  session->closing = true;
  if (session->pending_out() == 0) session->dead = true;
}

void PricingService::accept_new_connections() {
  for (;;) {
    Socket sock = accept_connection(listener_);
    if (!sock.valid()) return;
    auto session = std::make_shared<Session>(std::move(sock));
    session->last_activity_us = obs::now_micros();
    sessions_.push_back(std::move(session));
    ++stats_.connections_accepted;
    OLEV_OBS_COUNTER(accepted, "svc.connections.accepted");
    OLEV_OBS_ADD(accepted, 1);
  }
}

void PricingService::read_session(const std::shared_ptr<Session>& session,
                                  std::int64_t now_us) {
  std::uint8_t chunk[kReadChunkBytes];
  for (;;) {
    const IoResult io = read_some(session->socket.fd(), chunk);
    if (io.closed) {
      session->dead = true;
      return;
    }
    if (io.would_block || io.bytes == 0) break;
    session->last_activity_us = now_us;
    stats_.bytes_received += io.bytes;
    if (!session->decoder.feed({chunk, io.bytes})) {
      // Oversized frame: the length prefix alone condemns the stream.
      ++stats_.malformed_frames;
      OLEV_OBS_COUNTER(rejected, "svc.frames.rejected");
      OLEV_OBS_ADD(rejected, 1);
      fail_session(session, net::ControlCode::kMalformed);
      return;
    }
    while (auto payload = session->decoder.next()) {
      ++stats_.frames_received;
      net::Message message;
      try {
        message = net::deserialize(*payload);
      } catch (const std::exception&) {
        ++stats_.malformed_frames;
        OLEV_OBS_COUNTER(rejected, "svc.frames.rejected");
        OLEV_OBS_ADD(rejected, 1);
        fail_session(session, net::ControlCode::kMalformed);
        return;
      }
      dispatch(session, message, now_us);
      if (session->dead || session->closing) return;
    }
  }
}

void PricingService::dispatch(const std::shared_ptr<Session>& session,
                              const net::Message& message,
                              std::int64_t now_us) {
  if (const auto* beacon = std::get_if<net::BeaconMsg>(&message)) {
    if (beacon->player >= config_.players) {
      ++stats_.bad_requests;
      net::ControlMsg notice;
      notice.code = net::ControlCode::kBadRequest;
      notice.player = beacon->player;
      send_message(session, notice);
      return;
    }
    const bool was_bound = bound_session(beacon->player) != nullptr;
    const bool reattach = known_players_[beacon->player];
    session->has_player = true;
    session->player = beacon->player;
    known_players_[beacon->player] = true;
    if (!was_bound) ++bound_players_;
    if (config_.announce && !announcing_started_ &&
        bound_players_ >= config_.players) {
      announcing_started_ = true;
    }
    if (reattach) {
      // A known player is re-presenting its id (reconnect, or first bind
      // after a snapshot resume): acknowledge the re-attach so the client
      // knows its binding carried over, and if the grid-paced announcement
      // was waiting on exactly this player, retransmit immediately instead
      // of stalling the round until the kAnnounceRetryS timer.
      ++stats_.sessions_resumed;
      obs::flight::record(obs::flight::Event::kSessionResume, beacon->player,
                          static_cast<std::uint64_t>(engine_.updates()));
      net::ControlMsg notice;
      notice.code = net::ControlCode::kSessionResumed;
      notice.player = beacon->player;
      notice.round = static_cast<std::uint64_t>(engine_.updates());
      send_message(session, notice);
      if (announce_inflight_ && !announce_answered_ &&
          announced_player_ == beacon->player) {
        announced_at_us_ = 0;  // forces a retransmit on the next loop pass
      }
    }
    // CONVERGED goes out once, to the sessions bound at that moment; a
    // player binding after it would otherwise wait for an announcement that
    // never comes.
    if (config_.announce && converged_broadcast_ && !draining_) {
      send_converged(session);
    }
    return;
  }

  if (const auto* request = std::get_if<net::PowerRequestMsg>(&message)) {
    ++stats_.requests_received;
    OLEV_OBS_COUNTER(received, "svc.requests.received");
    OLEV_OBS_ADD(received, 1);
    net::ControlMsg notice;
    notice.player = request->player;
    notice.round = request->round;
    if (request->player >= config_.players ||
        !std::isfinite(request->total_kw)) {
      ++stats_.bad_requests;
      notice.code = net::ControlCode::kBadRequest;
      send_message(session, notice);
      return;
    }
    if (draining_) {
      ++stats_.drain_rejected;
      notice.code = net::ControlCode::kDraining;
      send_message(session, notice);
      return;
    }
    if (queue_.size() >= config_.max_queue) {
      ++stats_.retry_later;
      OLEV_OBS_COUNTER(retries, "svc.requests.retry_later");
      OLEV_OBS_ADD(retries, 1);
      obs::flight::record(obs::flight::Event::kBackpressure, request->player,
                          queue_.size());
      notice.code = net::ControlCode::kRetryLater;
      send_message(session, notice);
      return;
    }
    PendingRequest pending;
    pending.session = session;
    pending.player = request->player;
    pending.round = request->round;
    pending.total_kw = request->total_kw;
    pending.arrival_us = now_us;
    pending.deadline_us = now_us + micros(config_.request_deadline_s);
    pending.admit_done_us = obs::now_micros();
    pending.trace = request->trace;
    queue_.push_back(std::move(pending));
    obs::flight::record(obs::flight::Event::kAdmit, request->player,
                        queue_.size());
    return;
  }

  // Grid-to-client message types (or a control frame) arriving inbound is a
  // protocol violation; answer once and hang up.
  ++stats_.bad_requests;
  fail_session(session, net::ControlCode::kBadRequest);
}

void PricingService::expire_overdue(std::int64_t now_us) {
  // Deadline = arrival + constant, so FIFO order is deadline order and only
  // the front can be overdue.
  while (!queue_.empty() && queue_.front().deadline_us <= now_us) {
    PendingRequest expired = std::move(queue_.front());
    queue_.pop_front();
    ++stats_.deadline_expired;
    OLEV_OBS_COUNTER(expired_count, "svc.requests.expired");
    OLEV_OBS_ADD(expired_count, 1);
    obs::flight::record(obs::flight::Event::kExpire, expired.player,
                        expired.round);
    if (expired.session->dead) continue;
    net::ControlMsg notice;
    notice.code = net::ControlCode::kDeadlineExpired;
    notice.player = expired.player;
    notice.round = expired.round;
    send_message(expired.session, notice);
  }
}

void PricingService::run_batch(std::int64_t now_us) {
  const std::size_t batch_size = std::min(queue_.size(), config_.max_batch);
  if (batch_size == 0) return;
  ++stats_.batches;
  stats_.max_batch_size = std::max(stats_.max_batch_size, batch_size);
  last_batch_size_ = batch_size;
  obs::flight::record(obs::flight::Event::kBatchFire, batch_size,
                      queue_.size());
  OLEV_OBS_HISTOGRAM(batch_hist, "svc.batch.size",
                     {0, 1, 2, 4, 8, 16, 32, 64, 128, 256});
  OLEV_OBS_OBSERVE(batch_hist, static_cast<double>(batch_size));
  const obs::Stopwatch apply_time;
  for (std::size_t i = 0; i < batch_size; ++i) {
    PendingRequest entry = std::move(queue_.front());
    queue_.pop_front();
    if (entry.deadline_us <= now_us) {
      ++stats_.deadline_expired;
      OLEV_OBS_COUNTER(expired_count, "svc.requests.expired");
      OLEV_OBS_ADD(expired_count, 1);
      obs::flight::record(obs::flight::Event::kExpire, entry.player,
                          entry.round);
      if (!entry.session->dead) {
        net::ControlMsg notice;
        notice.code = net::ControlCode::kDeadlineExpired;
        notice.player = entry.player;
        notice.round = entry.round;
        send_message(entry.session, notice);
      }
      continue;
    }
    // Phase decomposition (docs/SERVING.md, "Phase timings"): the stamps are
    // part of the reply protocol, so they are taken in every build flavor;
    // only the histogram observations compile out with the obs layer.
    const std::int64_t solve_start_us = obs::now_micros();
    const PricingEngine::Applied& applied =
        engine_.apply(entry.player, entry.total_kw);
    const std::int64_t solve_done_us = obs::now_micros();
    if (journal_ != nullptr) {
      // Journal the applied request, in apply order, with its admission
      // stamp and trace context -- everything olev_replay needs to
      // reproduce the engine's update sequence bit-for-bit.  Expired
      // requests never get here, and the record lands before any reply.
      // Buffered append on the poll loop; off every rtcheck-audited hot root.
      persist::JournalRecord record;
      record.ts_us = entry.arrival_us;
      record.player = entry.player;
      record.round = entry.round;
      record.total_kw = entry.total_kw;
      record.trace_id = entry.trace.trace_id;
      record.client_send_us = entry.trace.client_send_us;
      try {
        journal_->append(record);
        ++stats_.journal_records;
      } catch (const std::exception&) {
        // Disk trouble must not take the pricing round down with it: close
        // the journal, count the failure, keep serving.
        ++stats_.journal_failures;
        journal_.reset();
      }
    }
    net::PhaseTimings phases;
    phases.admit_us = phase_us(entry.admit_done_us - entry.arrival_us);
    phases.queue_us = phase_us(now_us - entry.admit_done_us);
    phases.batch_us = phase_us(solve_start_us - now_us);
    phases.solve_us = phase_us(solve_done_us - solve_start_us);
    ++stats_.requests_served;
    OLEV_OBS_COUNTER(served, "svc.requests.served");
    OLEV_OBS_ADD(served, 1);
    OLEV_OBS_ONLY({
      if (latency_hist_ != nullptr) {
        latency_hist_->observe(
            static_cast<double>(solve_done_us - entry.arrival_us));
        phase_admit_hist_->observe(static_cast<double>(phases.admit_us));
        phase_queue_hist_->observe(static_cast<double>(phases.queue_us));
        phase_batch_hist_->observe(static_cast<double>(phases.batch_us));
        phase_solve_hist_->observe(static_cast<double>(phases.solve_us));
      }
    });
    if (announce_inflight_ && entry.player == announced_player_ &&
        entry.round == announced_round_) {
      announce_answered_ = true;
    }
    if (entry.session->dead) continue;
    net::ScheduleMsg confirmation;
    confirmation.player = entry.player;
    confirmation.round = entry.round;
    confirmation.row_kw = applied.row;
    confirmation.payment = applied.payment;
    confirmation.trace_id = entry.trace.trace_id;
    confirmation.phases = phases;
    OLEV_OBS_ONLY(const std::int64_t write_start_us = obs::now_micros());
    send_message(entry.session, confirmation);
    OLEV_OBS_ONLY({
      if (phase_write_hist_ != nullptr) {
        phase_write_hist_->observe(
            static_cast<double>(obs::now_micros() - write_start_us));
      }
    });
  }
  OLEV_OBS_ONLY({
    OLEV_OBS_HISTOGRAM(apply_hist, "svc.batch.apply_us",
                       {0, 50, 100, 250, 500, 1000, 2500, 5000, 10000});
    OLEV_OBS_OBSERVE(apply_hist, apply_time.seconds() * 1e6);
  });
}

void PricingService::maybe_announce(std::int64_t now_us) {
  if (!config_.announce || !announcing_started_ || draining_) return;
  if (engine_.converged()) {
    if (!converged_broadcast_) {
      converged_broadcast_ = true;
      for (const auto& session : sessions_) {
        if (session->dead || !session->has_player) continue;
        send_converged(session);
      }
    }
    return;
  }
  const auto round = static_cast<std::uint64_t>(engine_.updates());
  const bool waiting =
      announce_inflight_ && !announce_answered_ && announced_round_ >= round;
  if (waiting && now_us - announced_at_us_ < micros(kAnnounceRetryS)) {
    return;
  }
  const std::size_t cursor = engine_.cursor();
  const std::shared_ptr<Session> target = bound_session(cursor);
  if (!target) return;  // stalls until the player (re)binds; retried each loop
  if (waiting) ++stats_.announce_retransmissions;
  net::PaymentFunctionMsg announcement;
  announcement.player = static_cast<std::uint32_t>(cursor);
  announcement.round = round;
  announcement.others_load_kw = engine_.others_load(cursor);
  send_message(target, announcement);
  announce_inflight_ = true;
  announce_answered_ = false;
  announced_player_ = static_cast<std::uint32_t>(cursor);
  announced_round_ = round;
  announced_at_us_ = now_us;
}

void PricingService::send_converged(const std::shared_ptr<Session>& session) {
  net::ControlMsg notice;
  notice.code = net::ControlCode::kConverged;
  notice.player = session->player;
  notice.round = static_cast<std::uint64_t>(engine_.updates());
  send_message(session, notice);
}

void PricingService::begin_drain(std::int64_t now_us) {
  draining_ = true;
  drain_deadline_us_ = now_us + micros(kDrainTimeoutS);
  obs::flight::record(obs::flight::Event::kDrain, queue_.size(),
                      sessions_.size());
  listener_.close();
  // The admin plane drains with the service: answer nothing further, flush
  // what is already buffered once, and close.
  admin_listener_.close();
  for (const auto& admin : admin_sessions_) {
    if (!admin->dead) flush_admin(*admin);
    admin->dead = true;
  }
  // Answer everything already admitted (one final round per max_batch slice),
  // then tell every peer we are going away and close after the flush.
  expire_overdue(now_us);
  while (!queue_.empty()) run_batch(now_us);
  // Drain-then-persist: the engine state is final once the queue is empty,
  // so this is the exact cut the resumed process continues from.  Cold
  // path -- the atomic tmp+rename write never rides a hot root.
  if (journal_ != nullptr) {
    try {
      journal_->flush();
    } catch (const std::exception&) {
      ++stats_.journal_failures;
    }
    journal_.reset();
  }
  if (!config_.snapshot_path.empty()) {
    try {
      save_snapshot();
      ++stats_.snapshots_saved;
    } catch (const std::exception&) {
      // A failed snapshot must not wedge the drain; the daemon still owes
      // its peers DRAINING notices and a clean exit.
      ++stats_.snapshot_save_failures;
    }
  }
  for (const auto& session : sessions_) {
    if (session->dead) continue;
    net::ControlMsg notice;
    notice.code = net::ControlCode::kDraining;
    notice.player = session->has_player ? session->player : 0;
    send_message(session, notice);
    session->closing = true;
    if (session->pending_out() == 0) session->dead = true;
  }
}

void PricingService::reap_idle(std::int64_t now_us) {
  if (config_.idle_timeout_s <= 0.0) return;
  const std::int64_t horizon = micros(config_.idle_timeout_s);
  for (const auto& session : sessions_) {
    if (session->dead || session->closing) continue;
    if (now_us - session->last_activity_us >= horizon) {
      ++stats_.connections_reaped;
      OLEV_OBS_COUNTER(reaped, "svc.connections.reaped");
      OLEV_OBS_ADD(reaped, 1);
      session->dead = true;
    }
  }
}

void PricingService::remove_dead_sessions() {
  const auto alive_end = std::remove_if(
      sessions_.begin(), sessions_.end(),
      [](const std::shared_ptr<Session>& s) { return s->dead; });
  const auto removed =
      static_cast<std::size_t>(sessions_.end() - alive_end);
  if (removed == 0) return;
  stats_.connections_closed += removed;
  sessions_.erase(alive_end, sessions_.end());
  // Rebuild the bound-player count: bindings die with their sessions.
  std::vector<bool> bound(config_.players, false);
  for (const auto& session : sessions_) {
    if (session->has_player) bound[session->player] = true;
  }
  bound_players_ = static_cast<std::size_t>(
      std::count(bound.begin(), bound.end(), true));
}

void PricingService::accept_admin_connections() {
  for (;;) {
    Socket sock = accept_connection(admin_listener_);
    if (!sock.valid()) return;
    admin_sessions_.push_back(std::make_shared<AdminSession>(std::move(sock)));
    ++stats_.admin_connections;
  }
}

void PricingService::read_admin(AdminSession& session) {
  std::uint8_t chunk[1024];
  for (;;) {
    const IoResult io = read_some(session.socket.fd(), chunk);
    if (io.closed) {
      session.dead = true;
      return;
    }
    if (io.would_block || io.bytes == 0) break;
    session.inbuf.append(reinterpret_cast<const char*>(chunk), io.bytes);
    for (std::size_t newline = session.inbuf.find('\n');
         newline != std::string::npos;
         newline = session.inbuf.find('\n')) {
      std::string line = session.inbuf.substr(0, newline);
      session.inbuf.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      ++stats_.admin_requests;
      session.outbuf += admin_reply(line);
      session.outbuf += '\n';
    }
    if (session.inbuf.size() > kMaxAdminLineBytes) {
      // No command is this long; the peer is not speaking the protocol.
      session.dead = true;
      return;
    }
    flush_admin(session);
    if (session.dead) return;
  }
}

void PricingService::flush_admin(AdminSession& session) {
  while (session.pending_out() > 0) {
    const std::span<const std::uint8_t> pending(
        reinterpret_cast<const std::uint8_t*>(session.outbuf.data()) +
            session.outbuf_offset,
        session.pending_out());
    const IoResult io = write_some(session.socket.fd(), pending);
    if (io.closed) {
      session.dead = true;
      return;
    }
    if (io.would_block || io.bytes == 0) return;
    session.outbuf_offset += io.bytes;
  }
  session.outbuf.clear();
  session.outbuf_offset = 0;
}

void PricingService::remove_dead_admin_sessions() {
  admin_sessions_.erase(
      std::remove_if(
          admin_sessions_.begin(), admin_sessions_.end(),
          [](const std::shared_ptr<AdminSession>& s) { return s->dead; }),
      admin_sessions_.end());
}

void PricingService::write_health(obs::JsonWriter& json) const {
  json.begin_object();
  json.key("status").value(draining_ ? "draining" : "serving");
  json.key("uptime_us").value(obs::now_micros() - started_us_);
  json.key("connections").value(sessions_.size());
  json.key("bound_players").value(bound_players_);
  json.key("queue_depth").value(queue_.size());
  json.key("requests_served").value(stats_.requests_served);
  json.end_object();
}

void PricingService::write_engine(obs::JsonWriter& json) const {
  json.begin_object();
  json.key("mode").value(engine_.mode() == EngineMode::kMeanField ? "meanfield"
                                                                  : "exact");
  json.key("players").value(engine_.players());
  json.key("sections").value(engine_.sections());
  json.key("updates").value(engine_.updates());
  json.key("round").value(engine_.updates() / engine_.players());
  json.key("cursor").value(engine_.cursor());
  json.key("converged").value(engine_.converged());
  json.key("residual").value(engine_.residual());
  json.key("queue_depth").value(queue_.size());
  json.key("last_batch").value(last_batch_size_);
  json.key("max_batch").value(stats_.max_batch_size);
  json.key("batches").value(stats_.batches);
  json.key("resumed").value(resumed_);
  json.key("sessions_resumed").value(stats_.sessions_resumed);
  json.key("journal_records").value(stats_.journal_records);
  json.end_object();
}

std::string PricingService::admin_reply(std::string_view command) const {
  // Read-only queries only; anything that mutates state stays off this
  // plane by construction (docs/SERVING.md, "Admin protocol").
  if (command == "metrics") {
    return obs::to_json(obs::Registry::instance().snapshot());
  }
  if (command == "flight") return obs::flight::to_json(obs::flight::snapshot());
  obs::JsonWriter json;
  if (command == "health") {
    write_health(json);
  } else if (command == "engine") {
    write_engine(json);
  } else if (command == "snapshot") {
    json.begin_object();
    json.key("health");
    write_health(json);
    json.key("engine");
    write_engine(json);
    json.key("metrics");
    obs::write_json(json, obs::Registry::instance().snapshot());
    json.end_object();
  } else {
    std::string error = "unknown command '";
    error += command;
    error += "' (expected snapshot|health|engine|metrics|flight)";
    json.begin_object().key("error").value(error).end_object();
  }
  return std::move(json).str();
}

int PricingService::next_timeout_ms(std::int64_t now_us) const {
  // Capped low so request_stop(), idle reaping, and announce retries are all
  // noticed promptly even on an otherwise silent socket set.
  std::int64_t next_us = 50'000;
  if (!queue_.empty()) {
    const std::int64_t fire_us =
        std::min(queue_.front().arrival_us + micros(config_.batch_window_s),
                 queue_.front().deadline_us);
    next_us = std::clamp<std::int64_t>(fire_us - now_us, 0, next_us);
  }
  return static_cast<int>(next_us / 1000);
}

void PricingService::run() {
  OLEV_OBS_SPAN(span, "svc.serve", "service");
  std::vector<PollItem> items;
  while (true) {
    const std::int64_t now_us = obs::now_micros();

    if (stop_requested_.load(std::memory_order_relaxed) && !draining_) {
      begin_drain(now_us);
    }
    if (draining_) {
      const bool flushed = std::all_of(
          sessions_.begin(), sessions_.end(),
          [](const std::shared_ptr<Session>& s) { return s->dead; });
      if (flushed || now_us >= drain_deadline_us_) break;
    }

    reap_idle(now_us);
    remove_dead_sessions();
    remove_dead_admin_sessions();

    if (!draining_) {
      expire_overdue(now_us);
      if (!queue_.empty() &&
          (queue_.size() >= config_.max_batch ||
           now_us - queue_.front().arrival_us >=
               micros(config_.batch_window_s))) {
        run_batch(now_us);
      }
      maybe_announce(now_us);
    }

    OLEV_OBS_ONLY({
      OLEV_OBS_GAUGE(active, "svc.connections.active");
      OLEV_OBS_SET(active, static_cast<double>(sessions_.size()));
      OLEV_OBS_GAUGE(depth, "svc.queue.depth");
      OLEV_OBS_SET(depth, static_cast<double>(queue_.size()));
    });

    items.clear();
    if (listener_.valid()) {
      PollItem item;
      item.fd = listener_.fd();
      item.want_read = true;
      items.push_back(item);
    }
    const bool poll_admin_listener = admin_listener_.valid();
    if (poll_admin_listener) {
      PollItem item;
      item.fd = admin_listener_.fd();
      item.want_read = true;
      items.push_back(item);
    }
    const std::size_t session_count = sessions_.size();
    for (const auto& session : sessions_) {
      PollItem item;
      item.fd = session->socket.fd();
      item.want_read = !session->closing;
      item.want_write = session->pending_out() > 0;
      items.push_back(item);
    }
    const std::size_t admin_count = admin_sessions_.size();
    for (const auto& admin : admin_sessions_) {
      PollItem item;
      item.fd = admin->socket.fd();
      item.want_read = true;
      item.want_write = admin->pending_out() > 0;
      items.push_back(item);
    }
    if (items.empty()) {
      if (draining_) break;
      continue;  // unreachable outside drain: the listener stays registered
    }

    const int ready = poll_fds(items, next_timeout_ms(now_us));
    if (ready == 0) continue;

    std::size_t index = 0;
    if (listener_.valid()) {
      if (items[index].readable) accept_new_connections();
      ++index;
    }
    if (poll_admin_listener) {
      if (items[index].readable) accept_admin_connections();
      ++index;
    }
    // Snapshot: the accept calls may have grown the session vectors, but the
    // poll results only cover the counts recorded before poll_fds.
    const std::int64_t io_now_us = obs::now_micros();
    for (std::size_t s = 0; s < session_count; ++index, ++s) {
      const std::shared_ptr<Session> session = sessions_[s];
      const PollItem& item = items[index];
      if (session->dead) continue;
      if (item.writable) flush_session(*session);
      if (session->dead) continue;
      if (item.readable) read_session(session, io_now_us);
      if (session->dead) continue;
      if (item.hangup && !item.readable) session->dead = true;
    }
    for (std::size_t a = 0; a < admin_count; ++index, ++a) {
      const std::shared_ptr<AdminSession> admin = admin_sessions_[a];
      const PollItem& item = items[index];
      if (admin->dead) continue;
      if (item.writable) flush_admin(*admin);
      if (admin->dead) continue;
      if (item.readable) read_admin(*admin);
      if (admin->dead) continue;
      if (item.hangup && !item.readable) admin->dead = true;
    }
  }
  remove_dead_sessions();
  remove_dead_admin_sessions();
}

}  // namespace olev::svc
