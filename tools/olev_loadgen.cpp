// olev_loadgen: concurrent load generator / protocol checker for olevd.
//
// Opens N connections, binds each to a player, fires power requests, and
// validates every reply (player/round echo, finite non-negative allocation,
// water-filling budget, finite payment).  Exits 0 only when the run was
// clean: zero garbled replies and zero transport errors -- the acceptance
// bar of the e2e ctest entries (tests/e2e/olev_e2e.py).
//
//   $ ./olev_loadgen --port 7143 --connections 64 --requests 50 --players 64

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "svc/loadgen.h"
#include "util/config.h"

namespace {

void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --port N [options]\n"
      << "  --host ADDR      server address (default 127.0.0.1)\n"
      << "  --port N         server port (required)\n"
      << "  --connections N  concurrent connections (default 8)\n"
      << "  --requests N     requests per connection (default 32)\n"
      << "  --players N      server player universe (default = connections)\n"
      << "  --min-kw X       request range lower bound (default 1)\n"
      << "  --max-kw X       request range upper bound (default 120)\n"
      << "  --timeout-s X    per-reply receive timeout (default 10)\n"
      << "  --seed N         workload seed (default 42)\n"
      << "  --reconnect      drop each connection halfway and re-beacon,\n"
      << "                   exercising the durable-session re-attach path\n"
      << "  --json PATH      also write the report as JSON\n";
}

}  // namespace

int main(int argc, char** argv) {
  olev::svc::LoadgenConfig config;
  config.players = 0;  // default: match --connections
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    }
    if (arg == "--reconnect") {
      config.reconnect = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::cerr << "olev_loadgen: " << arg << " needs a value\n";
      return 2;
    }
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
    if (arg == "--host") {
      config.host = argv[++i];
    } else if (arg == "--port") {
      config.port = static_cast<std::uint16_t>(next_u(UINT16_MAX));
    } else if (arg == "--connections") {
      config.connections = next_u();
    } else if (arg == "--requests") {
      config.requests_per_connection = next_u();
    } else if (arg == "--players") {
      config.players = next_u();
    } else if (arg == "--min-kw") {
      config.min_request_kw = next_d();
    } else if (arg == "--max-kw") {
      config.max_request_kw = next_d();
    } else if (arg == "--timeout-s") {
      config.recv_timeout_s = next_d();
    } else if (arg == "--seed") {
      config.seed = static_cast<std::uint64_t>(next_u());
    } else if (arg == "--json") {
      json_path = argv[++i];
    } else {
      std::cerr << "olev_loadgen: unknown option " << arg << "\n";
      usage(argv[0]);
      return 2;
    }
    if (bad_number) {
      std::cerr << "olev_loadgen: bad value '" << argv[i] << "' for " << arg
                << "\n";
      return 2;
    }
  }
  if (config.port == 0) {
    std::cerr << "olev_loadgen: --port is required\n";
    usage(argv[0]);
    return 2;
  }
  if (config.players == 0) config.players = config.connections;

  const olev::svc::LoadgenReport report = olev::svc::run_loadgen(config);
  const std::string json = report.to_json() + "\n";
  std::cout << json;
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json;
    if (!out) {
      std::cerr << "olev_loadgen: failed to write " << json_path << "\n";
      return 1;
    }
  }
  if (!report.clean()) {
    std::cerr << "olev_loadgen: NOT CLEAN (garbled=" << report.garbled
              << " errors=" << report.errors << ")\n";
    return 1;
  }
  return 0;
}
