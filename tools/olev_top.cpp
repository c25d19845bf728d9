// olev_top: live one-screen view of a running olevd, polled over the
// read-only admin plane (docs/SERVING.md, "Admin protocol").
//
//   $ ./olev_top --port 7144            # the --admin-port olevd was given
//   $ ./olev_top --port 7144 --once     # one snapshot, no screen clearing
//
// Polls "snapshot" on one persistent connection and renders health, engine
// state, and the request/phase histograms.  The field extraction below is a
// deliberately small scanner over the known snapshot shape
// (docs/OBSERVABILITY.md, "Admin snapshot schema"), not a JSON parser.

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "svc/admin.h"
#include "util/config.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  double interval_s = 1.0;
  bool once = false;
};

void usage(const char* argv0) {
  std::cerr << "usage: " << argv0 << " --port N [options]\n"
            << "  --port N        olevd admin port (required)\n"
            << "  --host H        admin host (default 127.0.0.1)\n"
            << "  --interval-s X  poll interval (default 1.0)\n"
            << "  --once          print one snapshot and exit\n";
}

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&]() {
      if (i + 1 >= argc) {
        std::cerr << "olev_top: " << arg << " needs a value\n";
        return false;
      }
      return true;
    };
    auto bad_value = [&]() {
      std::cerr << "olev_top: bad value '" << argv[i] << "' for " << arg
                << "\n";
      return false;
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else if (arg == "--once") {
      options.once = true;
    } else if (!need_value()) {
      return false;
    } else if (arg == "--port") {
      const auto port = olev::util::parse_uint(argv[++i], UINT16_MAX);
      if (!port) return bad_value();
      options.port = static_cast<std::uint16_t>(*port);
    } else if (arg == "--host") {
      options.host = argv[++i];
    } else if (arg == "--interval-s") {
      const auto interval = olev::util::parse_double(argv[++i]);
      if (!interval) return bad_value();
      options.interval_s = *interval;
    } else {
      std::cerr << "olev_top: unknown option " << arg << "\n";
      usage(argv[0]);
      return false;
    }
  }
  if (options.port == 0) {
    std::cerr << "olev_top: --port is required\n";
    usage(argv[0]);
    return false;
  }
  return true;
}

/// Value of `"key":<scalar>` after `from` in the snapshot, as raw text
/// ("123", "0.5", "true", "\"serving\"" -> serving).  Empty if absent.
std::string scalar_after(const std::string& json, const std::string& key,
                         std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle, from);
  if (at == std::string::npos) return {};
  std::size_t begin = at + needle.size();
  if (begin >= json.size()) return {};
  if (json[begin] == '"') {
    const std::size_t end = json.find('"', begin + 1);
    if (end == std::string::npos) return {};
    return json.substr(begin + 1, end - begin - 1);
  }
  std::size_t end = begin;
  while (end < json.size() && json[end] != ',' && json[end] != '}' &&
         json[end] != ']') {
    ++end;
  }
  return json.substr(begin, end - begin);
}

/// The `[..]` array literal after `"key":` (numbers only), parsed.
std::vector<double> array_after(const std::string& json, const std::string& key,
                                std::size_t from) {
  std::vector<double> values;
  const std::string needle = "\"" + key + "\":[";
  const std::size_t at = json.find(needle, from);
  if (at == std::string::npos) return values;
  std::size_t cursor = at + needle.size();
  while (cursor < json.size() && json[cursor] != ']') {
    char* end = nullptr;
    const double value = std::strtod(json.c_str() + cursor, &end);
    if (end == json.c_str() + cursor) break;
    values.push_back(value);
    cursor = static_cast<std::size_t>(end - json.c_str());
    if (cursor < json.size() && json[cursor] == ',') ++cursor;
  }
  return values;
}

/// Approximate quantile from a cumulative histogram walk: the upper bound of
/// the bucket where the rank lands (the same estimate bench_service reports).
double histogram_quantile(const std::vector<double>& bounds,
                          const std::vector<double>& counts, double q) {
  double total = 0.0;
  for (double c : counts) total += c;
  if (total <= 0.0) return 0.0;
  const double rank = q * total;
  double seen = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) {
      return i < bounds.size() ? bounds[i]
                               : (bounds.empty() ? 0.0 : bounds.back());
    }
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

void render_histogram(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\":{";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return;
  const std::vector<double> bounds = array_after(json, "bounds", at);
  const std::vector<double> counts = array_after(json, "counts", at);
  const std::string count = scalar_after(json, "count", at);
  const std::string mean = scalar_after(json, "mean", at);
  std::printf("  %-26s n=%-9s mean=%-10s p50<=%-8.0f p95<=%-8.0f p99<=%.0f\n",
              name.c_str(), count.c_str(), mean.c_str(),
              histogram_quantile(bounds, counts, 0.50),
              histogram_quantile(bounds, counts, 0.95),
              histogram_quantile(bounds, counts, 0.99));
}

void render(const std::string& json, bool clear_screen) {
  if (clear_screen) std::printf("\x1b[2J\x1b[H");
  std::printf("olevd  status=%s  uptime_us=%s\n",
              scalar_after(json, "status").c_str(),
              scalar_after(json, "uptime_us").c_str());
  std::printf(
      "  connections=%s bound_players=%s queue_depth=%s served=%s\n",
      scalar_after(json, "connections").c_str(),
      scalar_after(json, "bound_players").c_str(),
      scalar_after(json, "queue_depth").c_str(),
      scalar_after(json, "requests_served").c_str());
  std::printf(
      "engine mode=%s players=%s sections=%s updates=%s round=%s "
      "converged=%s residual=%s\n",
      scalar_after(json, "mode").c_str(), scalar_after(json, "players").c_str(),
      scalar_after(json, "sections").c_str(),
      scalar_after(json, "updates").c_str(),
      scalar_after(json, "round").c_str(),
      scalar_after(json, "converged").c_str(),
      scalar_after(json, "residual").c_str());
  std::printf("  last_batch=%s max_batch=%s batches=%s\n",
              scalar_after(json, "last_batch").c_str(),
              scalar_after(json, "max_batch").c_str(),
              scalar_after(json, "batches").c_str());
  std::printf("latency (us)\n");
  render_histogram(json, "svc.request.latency_us");
  render_histogram(json, "svc.phase.admit_us");
  render_histogram(json, "svc.phase.queue_us");
  render_histogram(json, "svc.phase.batch_us");
  render_histogram(json, "svc.phase.solve_us");
  render_histogram(json, "svc.phase.write_us");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) return 2;

  (void)std::signal(SIGINT, handle_signal);
  (void)std::signal(SIGTERM, handle_signal);
  (void)std::signal(SIGPIPE, SIG_IGN);

  try {
    olev::svc::AdminClient client =
        olev::svc::AdminClient::connect(options.host, options.port);
    for (;;) {
      render(client.request("snapshot"), !options.once);
      if (options.once || g_stop != 0) return 0;
      const auto interval =
          std::chrono::duration<double>(options.interval_s);
      std::this_thread::sleep_for(interval);
      if (g_stop != 0) return 0;
    }
  } catch (const std::exception& error) {
    std::cerr << "olev_top: " << error.what() << "\n";
    return 1;
  }
}
