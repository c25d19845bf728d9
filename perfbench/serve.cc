// serve_exact and serve_durable: olevd's serving core, in process.
//
// Both boot an svc::PricingService -- the object olevd runs, with olevd's
// default section cost and a batch window of 0 -- by `resume` from a
// snapshot of a warm engine, then drive it over loopback TCP:
//
//   serve_exact    closed loop, 1 caller (the paper's OLEV, waiting for
//                  its schedule), exact engine at N = 4096, C = 64.  The
//                  O(N*C) apply dominates each request.
//   serve_durable  open loop, Poisson arrivals pipelined over 4 connections,
//                  mean-field engine at N = 500,000, C = 10, write-ahead
//                  journal, admin-plane snapshot reads every 100 ms.  The
//                  O(C) apply is cheap, so the poll loop, the codec, the
//                  journal and the admin reads do the work.  It runs by
//                  name only: its latency is mostly kernel and scheduler
//                  time, too unsteady on a shared VM for BENCHMARK.json
//                  (README.md in this directory gives the measurements).
//
// Every reply is validated; the gates at the end compare the daemon's state
// (serve_exact) or its journal replayed through a fresh engine
// (serve_durable) with what the clients received, bit for bit.
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/cost.h"
#include "net/message.h"
#include "obs/flight.h"
#include "persist/journal.h"
#include "persist/snapshot.h"
#include "svc/admin.h"
#include "svc/client.h"
#include "svc/engine.h"
#include "svc/frame.h"
#include "svc/service.h"
#include "svc/socket.h"
#include "util/quantity.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace olev;

constexpr double kEpsilon = 1e-7;  // olevd's default convergence threshold
constexpr double kRecvTimeoutS = 5.0;
constexpr const char* kHost = "127.0.0.1";
/// Requests (and replies) the traced run's layer probes replay or re-encode.
constexpr std::size_t kProbeRequests = 2000;
/// serve_durable's offered rate.  The server spends ~10-20 us a request, so
/// it is busy well under a third of the time and the run measures latency,
/// not a growing backlog.
constexpr double kOfferedPerS = 10000.0;
constexpr std::int64_t kAdminPeriodNs = 100'000'000;
/// Admin `snapshot` reads serve_exact's traced run times after its window.
constexpr int kAdminProbes = 200;
/// A serve_durable run whose generator sent its p90 request later than
/// this after its due time is rejected: it measured the generator.
constexpr double kLateP90BoundUs = 200.0;

struct Shape {
  std::size_t players;
  std::size_t sections;
  svc::EngineMode mode;
};

std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

/// `part` / `whole` as doubles, with an empty `whole` counted as 1.
double share(double part, double whole) {
  return part / std::max(1.0, whole);
}

/// olevd's default cost: the paper's nonlinear V with beta = 5, alpha =
/// 0.875, P_ref = P_line = 40 kW, overload weight 1.
core::SectionCost olevd_cost() {
  return core::SectionCost(
      std::make_unique<core::NonlinearPricing>(5.0, 0.875, 40.0),
      core::OverloadCost{1.0}, util::kw(40.0));
}

svc::PricingEngine fresh_engine(const Shape& shape) {
  return svc::PricingEngine(
      olevd_cost(),
      svc::EngineConfig{shape.players, shape.sections, kEpsilon, {},
                        shape.mode});
}

/// Independent random streams from one workload seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return seed * 0x9e3779b97f4a7c15ULL + stream;
}

/// A RAM-backed file that no directory names (memfd); path() reopens it.
/// The journal lives here, so the run measures persist and not a disk.
class MemFile {
 public:
  MemFile() : fd_(memfd_create("perfbench-journal", 0)) {
    if (fd_ < 0) throw std::runtime_error("memfd_create failed");
  }
  ~MemFile() { ::close(fd_); }
  MemFile(const MemFile&) = delete;
  MemFile& operator=(const MemFile&) = delete;

  std::string path() const { return "/proc/self/fd/" + std::to_string(fd_); }

 private:
  int fd_;
};

persist::ServiceSnapshot snapshot_of(const svc::PricingEngine& engine) {
  persist::ServiceSnapshot snapshot;
  persist::EngineSnapshot& state = snapshot.engine;
  state.mode = engine.mode() == svc::EngineMode::kMeanField ? 1 : 0;
  state.players = engine.players();
  state.sections = engine.sections();
  state.epsilon = kEpsilon;
  state.caps_kw = engine.caps_kw();
  const std::span<const double> flat = engine.schedule().flat();
  state.schedule_kw.assign(flat.begin(), flat.end());
  state.updates = engine.updates();
  state.residual = engine.residual();
  state.converged = engine.converged() ? 1 : 0;
  state.total_load_kw = engine.total_load_kw();
  return snapshot;
}

svc::PricingEngine engine_from(const Shape& shape,
                               const persist::ServiceSnapshot& snapshot) {
  svc::PricingEngine engine = fresh_engine(shape);
  const persist::EngineSnapshot& state = snapshot.engine;
  engine.restore_state(state.schedule_kw, state.updates, state.residual,
                       state.converged != 0, state.total_load_kw);
  return engine;
}

/// The warm state: one seeded request per player, applied in process.
persist::ServiceSnapshot warm_state(const Shape& shape, std::uint64_t seed) {
  svc::PricingEngine engine = fresh_engine(shape);
  util::Rng rng(stream_seed(seed, 1));
  for (std::size_t player = 0; player < shape.players; ++player) {
    engine.apply(player, rng.uniform(1.0, 120.0));
  }
  return snapshot_of(engine);
}

/// A PricingService, booted (resume-loaded and listening) by the
/// constructor.  start() runs it on its own thread; stop() drains it, which
/// saves its snapshot, and joins.  One that never started has nothing to
/// drain, and destroying it writes nothing.
class Server {
 public:
  explicit Server(svc::ServiceConfig config)
      : service_(olevd_cost(), std::move(config)) {}
  ~Server() { stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void start() { thread_ = std::thread([this] { serve(); }); }
  void stop() {
    if (!thread_.joinable()) return;
    service_.request_stop();
    thread_.join();
  }
  svc::PricingService& service() { return service_; }
  /// What run() threw, if anything; valid after stop().
  const std::string& error() const { return error_; }

 private:
  void serve() {
    try {
      service_.run();
    } catch (const std::exception& failure) {
      error_ = failure.what();
    }
  }

  svc::PricingService service_;
  std::string error_;
  std::thread thread_;
};

svc::ServiceConfig service_config(const Shape& shape,
                                  const std::string& snapshot_path) {
  svc::ServiceConfig config;
  config.players = shape.players;
  config.sections = shape.sections;
  config.epsilon = kEpsilon;
  config.engine_mode = shape.mode;
  config.batch_window_s = 0.0;
  config.snapshot_path = snapshot_path;
  config.resume = true;
  return config;
}

/// Warm-up, snapshot save and boot -- the set-up both serve workloads share
/// (binding the clients is each workload's own).  In a traced run the
/// snapshot is also loaded back once, so persist::load gets its own span.
/// The service is not started: a workload repeats its set-up kSetups times
/// and starts only the last service, so no drain (and no snapshot written
/// by it) falls between two set-ups.
std::unique_ptr<Server> boot(const Shape& shape, const Options& options,
                             svc::ServiceConfig config, Lane* lane,
                             Report& report,
                             persist::ServiceSnapshot& boot_state) {
  {
    Scope span(lane, "svc.PricingEngine::apply(warm-up)");
    boot_state = warm_state(shape, options.seed);
  }
  {
    Scope span(lane, "persist.save");
    persist::save(config.snapshot_path, boot_state);
  }
  if (lane != nullptr) {
    Scope span(lane, "persist.load");
    if (!(persist::load(config.snapshot_path) == boot_state)) {
      report.fail("snapshot load did not reproduce the saved snapshot");
    }
  }
  Scope span(lane, "svc.PricingService(resume)");
  return std::make_unique<Server>(std::move(config));
}

struct Request {
  std::uint32_t player = 0;
  std::uint64_t round = 0;
  double kw = 0.0;
  std::uint64_t trace_id = 0;
};

net::PowerRequestMsg request_message(const Request& request) {
  net::PowerRequestMsg message;
  message.player = request.player;
  message.round = request.round;
  message.total_kw = request.kw;
  message.trace.trace_id = request.trace_id;
  message.trace.client_send_us = now_ns() / 1000;
  return message;
}

/// Empty when `message` is a valid reply to `request`, else why it is not:
/// a ScheduleMsg echoing player, round and trace_id, whose row is finite,
/// non-negative and sums to the (uncapped) request, with a payment >= 0.
std::string check_reply(const net::Message& message, const Request& request,
                        std::size_t sections) {
  if (const auto* control = std::get_if<net::ControlMsg>(&message)) {
    return "control code " + std::to_string(static_cast<int>(control->code));
  }
  const auto* reply = std::get_if<net::ScheduleMsg>(&message);
  if (reply == nullptr) return "reply is not a ScheduleMsg";
  if (reply->player != request.player || reply->round != request.round ||
      reply->trace_id != request.trace_id) {
    return "reply does not echo player, round and trace_id";
  }
  if (reply->row_kw.size() != sections) return "row has the wrong length";
  double sum = 0.0;
  for (const double cell : reply->row_kw) {
    if (!std::isfinite(cell) || cell < 0.0) {
      return "row cell negative or not finite";
    }
    sum += cell;
  }
  if (std::abs(sum - request.kw) > 1e-9 * std::max(1.0, request.kw)) {
    return "row sums to " + fmt(sum) + " kW, requested " + fmt(request.kw);
  }
  if (!std::isfinite(reply->payment) || reply->payment < 0.0) {
    return "payment negative or not finite";
  }
  return {};
}

/// True when `reply` is what the admin plane's `snapshot` command returns.
bool is_admin_snapshot(const std::string& reply) {
  return reply.rfind("{\"health\":", 0) == 0 &&
         reply.find("\"requests_served\":") != std::string::npos;
}

double phase_sum_us(const net::PhaseTimings& phases) {
  return static_cast<double>(phases.admit_us) + phases.queue_us +
         phases.batch_us + phases.solve_us;
}

/// Adds the echoed phases as back-to-back children of the request span
/// `parent`, from `from_ns` (the request is on the wire) on.  They are its
/// only children, so the request span's self time is the client latency
/// minus the phases: svc.wire_us.  Phases that overrun the request (see
/// svc.phase_overrun_share) are clipped to it, by self_times_ns and by the
/// trace writer alike, so the self time is never negative.
void add_phase_spans(Lane* lane, std::int32_t parent, std::int64_t from_ns,
                     const net::PhaseTimings& phases) {
  if (lane == nullptr) return;
  const std::pair<std::string_view, std::uint32_t> parts[] = {
      {"svc.phase.admit", phases.admit_us},
      {"svc.phase.queue", phases.queue_us},
      {"svc.phase.batch", phases.batch_us},
      {"svc.phase.solve", phases.solve_us}};
  for (const auto& [name, us] : parts) {
    const std::int64_t to_ns = from_ns + static_cast<std::int64_t>(us) * 1000;
    lane->add(name, from_ns, to_ns, parent);
    from_ns = to_ns;
  }
}

/// What the clients saw, for the metrics and the gates.  Beyond the latency
/// series, per-request details are kept only when `detailed`, so that in
/// the closed loop the harness's own memory does not grow with throughput.
struct Log {
  explicit Log(bool detailed) : detailed(detailed) {}

  bool detailed;
  Series latency_us;  ///< from send (closed loop) or due time (open loop)
  std::vector<double> late_us;  ///< send time minus due time
  std::vector<double> admit_us, queue_us, batch_us, solve_us;  ///< echoed
  std::size_t phase_overruns = 0;  ///< echoed phases > client latency + 1 us
  std::vector<Request> requests;   ///< the first kProbeRequests sent
  std::vector<net::ScheduleMsg> replies;  ///< the first kProbeRequests served
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t retry_later = 0;
  std::string first_error;

  void sent(const Request& request, std::int64_t late_ns) {
    ++attempted;
    if (requests.size() < kProbeRequests) requests.push_back(request);
    if (detailed) late_us.push_back(ns_to_us(late_ns));
  }
  void served(const net::ScheduleMsg& reply, std::int64_t send_ns,
              std::int64_t recv_ns, std::int64_t due_ns) {
    if (phase_sum_us(reply.phases) > ns_to_us(recv_ns - send_ns) + 1.0) {
      ++phase_overruns;
    }
    latency_us.add(recv_ns, ns_to_us(recv_ns - due_ns));
    if (detailed) {
      admit_us.push_back(reply.phases.admit_us);
      queue_us.push_back(reply.phases.queue_us);
      batch_us.push_back(reply.phases.batch_us);
      solve_us.push_back(reply.phases.solve_us);
    }
    if (replies.size() < kProbeRequests) replies.push_back(reply);
  }
  void failure(const std::string& why, const net::Message* message) {
    ++failed;
    const auto* control =
        message != nullptr ? std::get_if<net::ControlMsg>(message) : nullptr;
    if (control != nullptr && control->code == net::ControlCode::kRetryLater) {
      ++retry_later;
    }
    if (first_error.empty()) first_error = why;
  }
};

/// End-to-end metrics and the checks every serve run shares.
void report_serving(const Log& log, const std::vector<double>& setup_s,
                    Report& report) {
  report.attempted = log.attempted;
  report.failed = log.failed;
  if (log.failed > 0) {
    report.fail(std::to_string(log.failed) + " of " +
                std::to_string(log.attempted) +
                " requests failed; first: " + log.first_error);
  }
  report.end_to_end(log.latency_us);
  report.metric("setup_s", median(setup_s));
  report.note("phase_overruns", std::to_string(log.phase_overruns));
}

/// Per-layer metrics of the serving layers, traced runs only.  The phases
/// are the server's echoed PhaseTimings; the probes replay this workload's
/// own requests and replies through each layer's public calls.
void report_serving_layers(const Shape& shape, const Log& log,
                           const persist::ServiceSnapshot& boot_state,
                           const svc::ServiceStats& stats, Tracer& tracer,
                           Lane& lane, Report& report) {
  report.percentiles("svc.phase.admit", log.admit_us);
  report.percentiles("svc.phase.queue", log.queue_us);
  report.percentiles("svc.phase.batch", log.batch_us);
  report.metric("svc.phase.solve_p50_us", median(log.solve_us));
  // svc.wire_us: the self time of the request spans, i.e. client latency
  // minus the echoed phases.  The server stamps a request's arrival when
  // poll(2) returns, so a frame that lands later in the same pass carries
  // phases that start before it was sent; the overrun share says how often
  // that exceeded the 1 us the server's whole-microsecond stamps allow.
  report.metric("svc.phase_overrun_share",
                share(static_cast<double>(log.phase_overruns),
                      static_cast<double>(log.latency_us.size())));
  report.percentiles("svc.wire", tracer.self_us("svc.request"));
  report.metric("svc.batch_size_mean",
                share(static_cast<double>(stats.requests_served),
                      static_cast<double>(stats.batches)));
  report.metric("net.bytes_per_request",
                share(static_cast<double>(stats.bytes_received +
                                          stats.bytes_sent),
                      static_cast<double>(stats.requests_received)));
  report.percentiles("loadgen.late", log.late_us);
  report.metric("loadgen.late_max_us",
                log.late_us.empty() ? 0.0
                                    : *std::max_element(log.late_us.begin(),
                                                        log.late_us.end()));
  report.metric("loadgen.retry_share",
                share(static_cast<double>(log.retry_later),
                      static_cast<double>(log.attempted)));

  const std::vector<Request>& requests = log.requests;
  const auto per_item = [](std::int64_t start_ns, std::size_t items) {
    return share(static_cast<double>(now_ns() - start_ns),
                 static_cast<double>(items));
  };

  // svc engine: this workload's requests, applied from the same warm state.
  {
    svc::PricingEngine engine = engine_from(shape, boot_state);
    for (const Request& request : requests) {
      Scope span(&lane, "svc.PricingEngine::apply");
      engine.apply(request.player, request.kw);
    }
    report.percentiles("svc.engine.apply",
                       tracer.durations_us("svc.PricingEngine::apply"));
  }

  // persist: journal append under olevd's fsync policy, then replay.
  {
    MemFile file;
    persist::JournalHeader header;
    header.mode = boot_state.engine.mode;
    header.players = shape.players;
    header.sections = shape.sections;
    header.epsilon = kEpsilon;
    header.caps_kw = boot_state.engine.caps_kw;
    {
      persist::JournalWriter writer(file.path(), header,
                                    persist::FsyncPolicy::kOnFlush);
      Scope span(&lane, "persist.JournalWriter::append");
      const std::int64_t start = now_ns();
      for (const Request& request : requests) {
        persist::JournalRecord record;
        record.ts_us = now_ns() / 1000;
        record.player = request.player;
        record.round = request.round;
        record.total_kw = request.kw;
        record.trace_id = request.trace_id;
        writer.append(record);
      }
      writer.flush();
      report.metric("persist.journal_append_ns",
                    per_item(start, requests.size()));
    }
    svc::PricingEngine engine = engine_from(shape, boot_state);
    const std::int64_t start = now_ns();
    Scope span(&lane, "persist.replay");
    const persist::JournalData data = persist::read_journal(file.path());
    for (const persist::JournalRecord& record : data.records) {
      engine.apply(record.player, record.total_kw);
    }
    report.metric("persist.replay_per_s",
                  1e9 / per_item(start, data.records.size()));
  }
  report.metric("persist.snapshot_save_ms",
                median(tracer.durations_us("persist.save")) * 1e-3);
  report.metric("persist.snapshot_load_ms",
                median(tracer.durations_us("persist.load")) * 1e-3);
  report.metric("persist.snapshot_mb",
                static_cast<double>(persist::encode(boot_state).size()) /
                    (1024.0 * 1024.0));

  // net framing: this workload's requests and replies, encoded and decoded.
  {
    std::vector<net::Message> messages;
    for (const Request& request : requests) {
      messages.emplace_back(request_message(request));
    }
    messages.insert(messages.end(), log.replies.begin(), log.replies.end());
    std::vector<std::vector<std::uint8_t>> frames;
    frames.reserve(messages.size());
    std::int64_t start = now_ns();
    {
      Scope span(&lane, "net.encode_frame");
      for (const net::Message& message : messages) {
        frames.push_back(svc::encode_frame(message));
      }
    }
    report.metric("net.encode_ns", per_item(start, frames.size()));
    svc::FrameDecoder decoder;
    std::size_t decoded = 0;
    std::size_t equal = 0;
    start = now_ns();
    {
      Scope span(&lane, "net.decode");
      for (const auto& frame : frames) {
        decoder.feed(frame);
        while (auto payload = decoder.next()) {
          equal += net::deserialize(*payload) == messages[decoded++] ? 1 : 0;
        }
      }
    }
    report.metric("net.decode_ns", per_item(start, frames.size()));
    if (equal != frames.size()) {
      report.fail("frame encode/decode did not round-trip every message");
    }
  }

  // obs: the flight recorder the service writes on every admission.
  {
    constexpr std::uint64_t kRecords = 100'000;
    const std::int64_t start = now_ns();
    {
      Scope span(&lane, "obs.flight::record");
      for (std::uint64_t i = 0; i < kRecords; ++i) {
        obs::flight::record(obs::flight::Event::kAdmit, i % shape.players,
                            i & 63);
      }
    }
    report.metric("obs.flight_record_ns", per_item(start, kRecords));
  }
}

}  // namespace

Report run_serve_exact(const Options& options, Tracer* tracer) {
  const Shape shape{4096, 64, svc::EngineMode::kExact};
  Report report;
  Lane* setup_lane = tracer != nullptr ? &tracer->lane("setup") : nullptr;
  Lane* lane = tracer != nullptr ? &tracer->lane("caller") : nullptr;
  const std::string snapshot_path = options.state_dir + "/serve_exact.snap";

  persist::ServiceSnapshot boot_state;
  std::unique_ptr<Server> server;
  std::optional<svc::ServiceClient> client;
  std::vector<double> setup_s;
  for (int repetition = 0; repetition < kSetups; ++repetition) {
    client.reset();
    server.reset();
    const std::int64_t start = now_ns();
    // The admin plane is listening in every run, so that traced and
    // untraced runs poll the same sockets; only the traced run reads it.
    svc::ServiceConfig config = service_config(shape, snapshot_path);
    config.admin_enabled = true;
    server =
        boot(shape, options, std::move(config), setup_lane, report, boot_state);
    {
      Scope span(setup_lane, "svc.ServiceClient::connect");
      client.emplace(
          svc::ServiceClient::connect(kHost, server->service().port()));
    }
    setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  server->start();

  // One caller, on the server's CPU, waits for every reply before its next
  // request, so each request costs one apply plus a local context switch.
  // (Two callers on a second CPU made latency flip between about one and two
  // applies from run to run, as the host's cross-CPU wake-up delay decided
  // whether a request met the other caller's apply.)  "Late" is the caller's
  // own delay between a validated reply and its next send.
  const bool detailed = tracer != nullptr;
  Log log(detailed);
  std::vector<std::vector<double>> last_row(shape.players);
  util::Rng rng(stream_seed(options.seed, 100));
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + to_ns(options.seconds);
  log.latency_us.origin_ns = start;
  std::int64_t ready_ns = start;
  for (std::uint64_t seq = 0; now_ns() < deadline; ++seq) {
    Request request;
    request.player = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(shape.players) - 1));
    request.round = seq;
    request.kw = rng.uniform(1.0, 120.0);
    request.trace_id = seq + 1;
    const std::int64_t send_ns = now_ns();
    log.sent(request, send_ns - ready_ns);
    const std::int32_t root =
        lane != nullptr ? lane->begin("svc.request", -1, request.trace_id) : -1;
    std::optional<net::Message> reply;
    try {
      client->send(request_message(request));
      const std::int64_t sent_ns = now_ns();
      reply = client->recv(kRecvTimeoutS);
      if (reply && std::holds_alternative<net::ScheduleMsg>(*reply)) {
        add_phase_spans(lane, root, sent_ns,
                        std::get<net::ScheduleMsg>(*reply).phases);
      }
    } catch (const std::exception& error) {
      log.failure(std::string("connection: ") + error.what(), nullptr);
      if (lane != nullptr) lane->end(root);
      break;
    }
    if (!reply) {
      log.failure("no reply within the timeout", nullptr);
      if (lane != nullptr) lane->end(root);
      break;  // the stream is out of step; the caller stops
    }
    const std::string why = check_reply(*reply, request, shape.sections);
    const std::int64_t done_ns = now_ns();
    if (lane != nullptr) lane->end(root);
    ready_ns = done_ns;
    if (!why.empty()) {
      log.failure(why, &*reply);
      continue;
    }
    const auto& schedule = std::get<net::ScheduleMsg>(*reply);
    log.served(schedule, send_ns, done_ns, send_ns);
    last_row[request.player] = schedule.row_kw;
  }
  // svc.admin.rtt_us: the `snapshot` command olev_top polls, read after the
  // window so that it cannot delay the caller.
  if (tracer != nullptr) {
    Lane& lane = tracer->lane("admin");
    svc::AdminClient admin =
        svc::AdminClient::connect(kHost, server->service().admin_port());
    for (int i = 0; i < kAdminProbes; ++i) {
      std::string reply;
      {
        Scope span(&lane, "svc.AdminClient::request");
        reply = admin.request("snapshot", kRecvTimeoutS);
      }
      if (!is_admin_snapshot(reply)) {
        report.fail("admin snapshot reply is malformed");
        break;
      }
    }
    report.metric("svc.admin.rtt_p50_us",
                  median(tracer->durations_us("svc.AdminClient::request")));
  }
  server->stop();
  if (!server->error().empty()) report.fail("service: " + server->error());
  report_serving(log, setup_s, report);

  // Gate: after the drain, every touched player's row in the daemon equals,
  // bit for bit, the last row its caller received.
  const core::PowerSchedule& served = server->service().schedule();
  std::size_t touched = 0, differing = 0;
  for (std::size_t player = 0; player < shape.players; ++player) {
    if (last_row[player].empty()) continue;
    ++touched;
    if (!same_bits(last_row[player], served.row(player))) ++differing;
  }
  if (differing > 0) {
    report.fail(std::to_string(differing) + " of " + std::to_string(touched) +
                " players' rows differ from the last row their caller got");
  }
  report.note("players_touched", std::to_string(touched));
  report.note("threads", "2 (caller, server)");
  report.note("connections", "1");

  if (tracer != nullptr) {
    report_serving_layers(shape, log, boot_state, server->service().stats(),
                          *tracer, tracer->lane("layers"), report);
  }
  return report;
}

namespace {

/// One pipelined connection of the open-loop generator.
struct Connection {
  svc::Socket socket;
  svc::FrameDecoder decoder;
  std::vector<std::uint8_t> out;
  std::size_t out_head = 0;

  /// Writes what the socket takes now; false once the peer is gone.
  bool flush() {
    while (out_head < out.size()) {
      const svc::IoResult io = svc::write_some(
          socket.fd(), std::span<const std::uint8_t>(out).subspan(out_head));
      if (io.closed) return false;
      if (io.would_block) break;
      out_head += io.bytes;
    }
    if (out_head == out.size()) {
      out.clear();
      out_head = 0;
    }
    return true;
  }
};

}  // namespace

Report run_serve_durable(const Options& options, Tracer* tracer) {
  const Shape shape{500'000, 10, svc::EngineMode::kMeanField};
  const std::size_t connections =
      std::min<std::size_t>(4, options.cpus.size());
  Report report;
  Lane* setup_lane = tracer != nullptr ? &tracer->lane("setup") : nullptr;
  Lane* lane = tracer != nullptr ? &tracer->lane("generator") : nullptr;
  const std::string snapshot_path = options.state_dir + "/serve_durable.snap";
  MemFile journal;

  persist::ServiceSnapshot boot_state;
  std::unique_ptr<Server> server;
  std::vector<Connection> conns;
  std::optional<svc::AdminClient> admin;
  std::vector<double> setup_s;
  for (int repetition = 0; repetition < kSetups; ++repetition) {
    conns.clear();
    admin.reset();
    server.reset();
    const std::int64_t start = now_ns();
    svc::ServiceConfig config = service_config(shape, snapshot_path);
    config.journal_path = journal.path();
    config.journal_fsync = persist::FsyncPolicy::kOnFlush;
    config.admin_enabled = true;
    server =
        boot(shape, options, std::move(config), setup_lane, report, boot_state);
    const svc::PricingService& service = server->service();
    for (std::size_t c = 0; c < connections; ++c) {
      Scope span(setup_lane, "svc::connect_to");
      Connection conn;
      conn.socket = svc::connect_to(kHost, service.port());
      svc::set_nonblocking(conn.socket.fd(), true);
      conns.push_back(std::move(conn));
    }
    {
      Scope span(setup_lane, "svc.AdminClient::connect");
      admin.emplace(svc::AdminClient::connect(kHost, service.admin_port()));
    }
    setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  server->start();

  // Open loop: a seeded Poisson schedule, sent round-robin and pipelined
  // over the connections, each request timed from its due time.  The same
  // thread polls the admin plane's `snapshot` every 100 ms, as olev_top does.
  const std::vector<Arrival> schedule =
      poisson_schedule(stream_seed(options.seed, 2), kOfferedPerS,
                       options.seconds, shape.players);
  const auto request_of = [&schedule](std::size_t index) {
    Request request;
    request.player = schedule[index].player;
    request.round = index;
    request.kw = schedule[index].kw;
    request.trace_id = index + 1;
    return request;
  };
  struct Pending {
    std::int64_t send_ns = 0;
    std::int64_t written_ns = 0;
    std::int32_t span = -1;
    bool answered = false;
  };
  std::vector<Pending> pending(schedule.size());
  std::vector<std::vector<double>> rows(schedule.size());
  std::vector<double> payments(schedule.size());
  // Every request's details are kept: their number is fixed by the schedule.
  Log log(true);
  std::vector<double> admin_rtt_us;
  std::size_t sent = 0, answered = 0;
  std::string broken;

  const std::int64_t start = now_ns() + 2'000'000;
  log.latency_us.origin_ns = start;
  const std::int64_t window_end = start + to_ns(options.seconds);
  const std::int64_t give_up = window_end + to_ns(kRecvTimeoutS);
  std::int64_t next_admin = start + kAdminPeriodNs;
  std::vector<std::uint8_t> chunk(64 * 1024);
  std::vector<svc::PollItem> items(conns.size());

  const auto on_message = [&](const net::Message& message) {
    std::uint64_t id = 0;
    if (const auto* reply = std::get_if<net::ScheduleMsg>(&message)) {
      id = reply->trace_id;
    } else if (const auto* control = std::get_if<net::ControlMsg>(&message)) {
      id = control->round + 1;
    }
    if (id == 0 || id > sent || pending[id - 1].answered) {
      log.failure("reply matches no outstanding request", &message);
      return;
    }
    const std::size_t index = id - 1;
    Pending& slot = pending[index];
    slot.answered = true;
    ++answered;
    const std::string why =
        check_reply(message, request_of(index), shape.sections);
    const std::int64_t done_ns = now_ns();
    if (lane != nullptr) {
      if (const auto* reply = std::get_if<net::ScheduleMsg>(&message)) {
        add_phase_spans(lane, slot.span, slot.written_ns, reply->phases);
      }
      lane->at(slot.span).end_ns = done_ns;
    }
    if (!why.empty()) {
      log.failure(why, &message);
      return;
    }
    const auto& reply = std::get<net::ScheduleMsg>(message);
    log.served(reply, slot.send_ns, done_ns, start + schedule[index].due_ns);
    rows[index] = reply.row_kw;
    payments[index] = reply.payment;
  };

  while (broken.empty()) {
    std::int64_t now = now_ns();
    while (sent < schedule.size() && start + schedule[sent].due_ns <= now) {
      const Request request = request_of(sent);
      Pending& slot = pending[sent];
      Connection& conn = conns[sent % conns.size()];
      slot.send_ns = now_ns();
      if (lane != nullptr) {
        slot.span = lane->begin("svc.request", -1, request.trace_id);
      }
      const std::vector<std::uint8_t> frame =
          svc::encode_frame(request_message(request));
      conn.out.insert(conn.out.end(), frame.begin(), frame.end());
      if (!conn.flush()) broken = "server closed a connection";
      slot.written_ns = now_ns();
      log.sent(request, slot.send_ns - (start + schedule[sent].due_ns));
      ++sent;
      now = now_ns();
    }
    if (now >= next_admin && now < window_end) {
      const std::int64_t asked = now_ns();
      std::string reply;
      {
        Scope span(lane, "svc.AdminClient::request");
        reply = admin->request("snapshot", kRecvTimeoutS);
      }
      admin_rtt_us.push_back(ns_to_us(now_ns() - asked));
      if (!is_admin_snapshot(reply)) {
        report.fail("admin snapshot reply is malformed");
      }
      next_admin += kAdminPeriodNs;
    }
    if (sent == schedule.size() && answered == sent) break;
    if (now > give_up) {
      broken = "replies still outstanding " + fmt(kRecvTimeoutS) +
               " s after the window";
      break;
    }

    // Spin while the next arrival is near; sleep in poll(2) only when it is
    // more than 2 ms away (poll's timeout has millisecond resolution).
    int timeout_ms = 1;
    if (sent < schedule.size()) {
      const std::int64_t wait_ns = start + schedule[sent].due_ns - now_ns();
      timeout_ms = wait_ns > 2'000'000
                       ? static_cast<int>((wait_ns - 1'000'000) / 1'000'000)
                       : 0;
    }
    for (std::size_t c = 0; c < conns.size(); ++c) {
      items[c] = svc::PollItem{};
      items[c].fd = conns[c].socket.fd();
      items[c].want_read = true;
      items[c].want_write = !conns[c].out.empty();
    }
    if (svc::poll_fds(items, timeout_ms) == 0) {
      // Nothing to read: hand the CPU to the server thread, which shares it.
      std::this_thread::yield();
      continue;
    }
    for (std::size_t c = 0; c < conns.size() && broken.empty(); ++c) {
      Connection& conn = conns[c];
      if (items[c].writable && !conn.flush()) {
        broken = "server closed a connection";
      }
      if (!items[c].readable && !items[c].hangup) continue;
      const svc::IoResult io = svc::read_some(conn.socket.fd(), chunk);
      if (io.closed) broken = "server closed a connection";
      if (io.bytes == 0) continue;
      if (!conn.decoder.feed(std::span(chunk.data(), io.bytes))) {
        broken = "oversized frame from the server";
      }
      while (auto payload = conn.decoder.next()) {
        try {
          on_message(net::deserialize(*payload));
        } catch (const std::exception& error) {
          log.failure(std::string("garbled reply: ") + error.what(), nullptr);
        }
      }
    }
  }
  if (!broken.empty()) report.fail(broken);
  server->stop();
  if (!server->error().empty()) report.fail("service: " + server->error());
  const svc::ServiceStats stats = server->service().stats();
  server.reset();

  report_serving(log, setup_s, report);
  // Validity: a run whose generator fell behind, or that lost replies,
  // measured the generator or a fault -- it is rejected, not reported.
  if (sent != answered) {
    report.fail("sent " + std::to_string(sent) + " requests, answered " +
                std::to_string(answered));
  }
  std::vector<double> late = log.late_us;
  std::sort(late.begin(), late.end());
  if (!late.empty() && percentile(late, 90.0) > kLateP90BoundUs) {
    report.fail("generator ran late: p90 " + fmt(percentile(late, 90.0)) +
                " us > " + fmt(kLateP90BoundUs) + " us");
  }

  // Gate: the journal, replayed through a fresh engine restored from the
  // boot snapshot, reproduces every served row and payment bit for bit.
  const persist::JournalData journal_data =
      persist::read_journal(journal.path());
  if (journal_data.truncated) report.fail("journal is truncated");
  {
    svc::PricingEngine engine = engine_from(shape, boot_state);
    std::size_t matched = 0, mismatched = 0, unexplained = 0;
    std::vector<bool> replayed(schedule.size(), false);
    for (const persist::JournalRecord& record : journal_data.records) {
      const svc::PricingEngine::Applied& applied =
          engine.apply(record.player, record.total_kw);
      const std::uint64_t index = record.trace_id - 1;
      if (record.trace_id == 0 || index >= schedule.size() ||
          rows[index].empty() || replayed[index]) {
        ++unexplained;
        continue;
      }
      replayed[index] = true;
      const bool same = same_bits(applied.row, rows[index]) &&
                        same_bits({&applied.payment, 1}, {&payments[index], 1});
      ++(same ? matched : mismatched);
    }
    if (mismatched > 0 || unexplained > 0 ||
        matched != log.latency_us.size()) {
      report.fail("journal replay: " + std::to_string(matched) + " of " +
                  std::to_string(log.latency_us.size()) +
                  " served replies reproduced, " + std::to_string(mismatched) +
                  " differ, " + std::to_string(unexplained) +
                  " records unexplained");
    }
    report.note("journal_records",
                std::to_string(journal_data.records.size()));
  }
  report.note("offered_per_s", fmt(kOfferedPerS));
  report.note("threads", "2 (generator, server)");
  report.note("connections", std::to_string(conns.size()));
  report.note("journal", "memfd (RAM-backed, no directory entry)");
  report.note("admin_polls", std::to_string(admin_rtt_us.size()));

  if (tracer != nullptr) {
    report.metric("svc.admin.rtt_p50_us", median(admin_rtt_us));
    report_serving_layers(shape, log, boot_state, stats, *tracer,
                          tracer->lane("layers"), report);
  }
  return report;
}

}  // namespace perfbench
