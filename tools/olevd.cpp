// olevd: the pricing game as a long-lived daemon.
//
// Serves the Section IV-D asynchronous best-response protocol over loopback
// TCP (docs/SERVING.md documents the frame layout and semantics).  SIGTERM /
// SIGINT trigger a graceful drain: queued requests are answered, every
// client gets a DRAINING notice, buffers flush, then the process exits 0.
//
//   $ ./olevd --port 7143 --players 64 --sections 16
//   olevd: listening on 127.0.0.1:7143
//
// OLEV_METRICS=<path> / OLEV_TRACE=<path> export the obs registry / trace on
// exit, same as every other harness in this repo (docs/OBSERVABILITY.md).

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "core/cost.h"
#include "obs/report.h"
#include "persist/journal.h"
#include "svc/service.h"
#include "util/config.h"
#include "util/quantity.h"

namespace {

olev::svc::PricingService* g_service = nullptr;

void handle_signal(int) {
  if (g_service != nullptr) g_service->request_stop();
}

struct Options {
  std::uint16_t port = 0;
  bool admin = false;
  std::uint16_t admin_port = 0;
  std::size_t players = 8;
  std::size_t sections = 4;
  double epsilon = 1e-7;
  double batch_window_us = 2000.0;
  std::size_t max_batch = 64;
  std::size_t max_queue = 1024;
  double deadline_ms = 1000.0;
  double idle_timeout_s = 60.0;
  bool announce = false;
  olev::svc::EngineMode engine = olev::svc::EngineMode::kExact;
  // Durable state plane (docs/PERSISTENCE.md).
  std::string snapshot_path;
  bool resume = false;
  std::string journal_path;
  olev::persist::FsyncPolicy journal_fsync =
      olev::persist::FsyncPolicy::kOnFlush;
  // Section cost knobs (defaults mirror the distributed-driver tests: the
  // paper's nonlinear V with beta=5, alpha=0.875, P_ref = P_line = 40 kW).
  double beta = 5.0;
  double alpha = 0.875;
  double p_ref_kw = 40.0;
  double p_line_kw = 40.0;
  double overload_weight = 1.0;
};

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --port N             listen port (default 0 = kernel-assigned)\n"
      << "  --admin-port N       enable the read-only admin/telemetry plane\n"
      << "                       on this loopback port (0 = kernel-assigned;\n"
      << "                       off unless the flag is given)\n"
      << "  --players N          player universe size (default 8)\n"
      << "  --sections N         charging sections (default 4)\n"
      << "  --epsilon X          convergence threshold (default 1e-7)\n"
      << "  --batch-window-us N  batching window (default 2000)\n"
      << "  --max-batch N        max requests per round (default 64)\n"
      << "  --queue N            admission queue bound (default 1024)\n"
      << "  --deadline-ms N      per-request deadline (default 1000)\n"
      << "  --idle-timeout-s N   reap silent connections (default 60)\n"
      << "  --announce           grid-paced announcement mode\n"
      << "  --engine NAME        pricing arithmetic: exact (default) or\n"
      << "                       meanfield (O(C) aggregate-field updates)\n"
      << "  --snapshot-path P    write a versioned state snapshot to P on\n"
      << "                       SIGTERM drain (atomic tmp+rename)\n"
      << "  --resume             reload --snapshot-path at boot and resume\n"
      << "                       the round at the exact announce cursor\n"
      << "  --journal P          append every applied request to the\n"
      << "                       write-ahead journal P (olev_replay input)\n"
      << "  --journal-fsync M    journal durability: none, flush (default),\n"
      << "                       or record (fsync per record)\n"
      << "  --beta X --alpha X --p-ref X --p-line X --overload-weight X\n"
      << "                       section cost parameters\n";
}

bool parse(int argc, char** argv, Options& options) {
  auto need_value = [&](int i) {
    if (i + 1 >= argc) {
      std::cerr << "olevd: " << argv[i] << " needs a value\n";
      return false;
    }
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // A numeric value must parse whole and fit its field (a port is 16 bits).
    bool bad_number = false;
    auto next_d = [&]() {
      const auto value = olev::util::parse_double(argv[++i]);
      bad_number = !value;
      return value.value_or(0.0);
    };
    auto next_u = [&](std::uint64_t max = SIZE_MAX) {
      const auto value = olev::util::parse_uint(argv[++i], max);
      bad_number = !value;
      return static_cast<std::size_t>(value.value_or(0));
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else if (arg == "--announce") {
      options.announce = true;
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (!need_value(i)) {
      return false;
    } else if (arg == "--port") {
      options.port = static_cast<std::uint16_t>(next_u(UINT16_MAX));
    } else if (arg == "--admin-port") {
      options.admin = true;
      options.admin_port = static_cast<std::uint16_t>(next_u(UINT16_MAX));
    } else if (arg == "--players") {
      options.players = next_u();
    } else if (arg == "--sections") {
      options.sections = next_u();
    } else if (arg == "--epsilon") {
      options.epsilon = next_d();
    } else if (arg == "--batch-window-us") {
      options.batch_window_us = next_d();
    } else if (arg == "--max-batch") {
      options.max_batch = next_u();
    } else if (arg == "--queue") {
      options.max_queue = next_u();
    } else if (arg == "--deadline-ms") {
      options.deadline_ms = next_d();
    } else if (arg == "--idle-timeout-s") {
      options.idle_timeout_s = next_d();
    } else if (arg == "--engine") {
      const std::string name = argv[++i];
      if (name == "exact") {
        options.engine = olev::svc::EngineMode::kExact;
      } else if (name == "meanfield") {
        options.engine = olev::svc::EngineMode::kMeanField;
      } else {
        std::cerr << "olevd: unknown engine '" << name
                  << "' (expected exact or meanfield)\n";
        return false;
      }
    } else if (arg == "--snapshot-path") {
      options.snapshot_path = argv[++i];
    } else if (arg == "--journal") {
      options.journal_path = argv[++i];
    } else if (arg == "--journal-fsync") {
      const std::string name = argv[++i];
      if (name == "none") {
        options.journal_fsync = olev::persist::FsyncPolicy::kNone;
      } else if (name == "flush") {
        options.journal_fsync = olev::persist::FsyncPolicy::kOnFlush;
      } else if (name == "record") {
        options.journal_fsync = olev::persist::FsyncPolicy::kEveryRecord;
      } else {
        std::cerr << "olevd: unknown fsync policy '" << name
                  << "' (expected none, flush, or record)\n";
        return false;
      }
    } else if (arg == "--beta") {
      options.beta = next_d();
    } else if (arg == "--alpha") {
      options.alpha = next_d();
    } else if (arg == "--p-ref") {
      options.p_ref_kw = next_d();
    } else if (arg == "--p-line") {
      options.p_line_kw = next_d();
    } else if (arg == "--overload-weight") {
      options.overload_weight = next_d();
    } else {
      std::cerr << "olevd: unknown option " << arg << "\n";
      usage(argv[0]);
      return false;
    }
    if (bad_number) {
      std::cerr << "olevd: bad value '" << argv[i] << "' for " << arg << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) return 2;

  olev::obs::EnvSession obs_session;

  olev::core::SectionCost cost(
      std::make_unique<olev::core::NonlinearPricing>(
          options.beta, options.alpha, options.p_ref_kw),
      olev::core::OverloadCost{options.overload_weight},
      olev::util::kw(options.p_line_kw));

  olev::svc::ServiceConfig config;
  config.port = options.port;
  config.players = options.players;
  config.sections = options.sections;
  config.epsilon = options.epsilon;
  config.batch_window_s = options.batch_window_us * 1e-6;
  config.max_batch = options.max_batch;
  config.max_queue = options.max_queue;
  config.request_deadline_s = options.deadline_ms * 1e-3;
  config.idle_timeout_s = options.idle_timeout_s;
  config.announce = options.announce;
  config.engine_mode = options.engine;
  config.admin_enabled = options.admin;
  config.admin_port = options.admin_port;
  config.snapshot_path = options.snapshot_path;
  config.resume = options.resume;
  config.journal_path = options.journal_path;
  config.journal_fsync = options.journal_fsync;

  try {
    olev::svc::PricingService service(std::move(cost), config);
    g_service = &service;
    (void)std::signal(SIGTERM, handle_signal);
    (void)std::signal(SIGINT, handle_signal);
    (void)std::signal(SIGPIPE, SIG_IGN);

    // The ready line is a contract: tests/e2e/olev_e2e.py and scripted
    // callers scrape it for the resolved port before launching clients.
    std::printf("olevd: listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(service.port()));
    if (service.admin_port() != 0) {
      // Same contract as the ready line: scripts scrape this for the
      // resolved admin port to hand to olev_top or an admin query.
      std::printf("olevd: admin on 127.0.0.1:%u\n",
                  static_cast<unsigned>(service.admin_port()));
    }
    if (service.resumed()) {
      // Scraped by the e2e.persist ctest entry: proof the round picked up
      // at the exact cursor rather than restarting from zero.
      std::printf("olevd: resumed updates=%zu cursor=%zu converged=%s\n",
                  service.game_updates(),
                  service.game_updates() % options.players,
                  service.game_converged() ? "yes" : "no");
    }
    std::fflush(stdout);

    service.run();
    g_service = nullptr;

    const olev::svc::ServiceStats& stats = service.stats();
    std::printf(
        "olevd: drained. connections=%llu requests=%llu served=%llu "
        "retry_later=%llu expired=%llu malformed=%llu batches=%llu "
        "max_batch=%llu updates=%zu converged=%s\n",
        static_cast<unsigned long long>(stats.connections_accepted),
        static_cast<unsigned long long>(stats.requests_received),
        static_cast<unsigned long long>(stats.requests_served),
        static_cast<unsigned long long>(stats.retry_later),
        static_cast<unsigned long long>(stats.deadline_expired),
        static_cast<unsigned long long>(stats.malformed_frames),
        static_cast<unsigned long long>(stats.batches),
        static_cast<unsigned long long>(stats.max_batch_size),
        service.game_updates(), service.game_converged() ? "yes" : "no");
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "olevd: fatal: " << error.what() << "\n";
    return 1;
  }
}
