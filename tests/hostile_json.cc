// Feeds a hostile string -- a quote, a backslash, a control byte and an
// invalid UTF-8 byte -- through the JSON exporters that carry caller text,
// and writes each document into OUT_DIR for check_hostile_json.py to
// strict-parse:
//   metrics.json  a counter, gauge and histogram named with it;
//   trace.json    a span labelled with it, on a tracer lane named with it;
//   admin.json    the admin plane's reply to it as an unknown command;
//   journal.bin   a one-request olevd journal (the script replays it from a
//                 path that carries the hostile string).
//
//   $ hostile_json OUT_DIR
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/cost.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/strings.h"
#include "svc/admin.h"
#include "svc/client.h"
#include "svc/service.h"

namespace {

// Keep in step with check_hostile_json.py's HOSTILE.
const std::string kHostile = "q\"b\\c\x01" "d\xff";

void write_metrics(const std::string& dir) {
  olev::obs::Registry& registry = olev::obs::Registry::instance();
  registry.counter("counter." + kHostile).add(1);
  registry.gauge("gauge." + kHostile).set(0.5);
  registry.histogram("histogram." + kHostile, {1.0, 2.0}).observe(1.5);
  olev::obs::write_file(dir + "/metrics.json",
                        olev::obs::to_json(registry.snapshot()));
}

void write_trace(const std::string& dir) {
  olev::obs::Tracer& tracer = olev::obs::Tracer::instance();
  tracer.start();
  olev::obs::set_thread_name(kHostile);
  { olev::obs::ScopedSpan span("hostile", "test", kHostile); }
  tracer.stop();
  tracer.save(dir + "/trace.json");
}

void write_admin_and_journal(const std::string& dir) {
  olev::svc::ServiceConfig config;
  config.players = 2;
  config.sections = 2;
  config.batch_window_s = 0.001;
  config.admin_enabled = true;
  config.journal_path = dir + "/journal.bin";
  olev::svc::PricingService service(
      olev::core::SectionCost(
          std::make_unique<olev::core::NonlinearPricing>(5.0, 0.875, 40.0),
          olev::core::OverloadCost{1.0}, olev::util::kw(40.0)),
      config);
  std::thread loop([&service] { service.run(); });
  try {
    olev::svc::ServiceClient client =
        olev::svc::ServiceClient::connect("127.0.0.1", service.port());
    olev::net::BeaconMsg beacon;
    beacon.player = 1;
    client.send(beacon);
    olev::net::PowerRequestMsg request;
    request.player = 1;
    request.round = 1;
    request.total_kw = 10.0;
    client.send(request);
    if (!client.recv().has_value()) {
      throw std::runtime_error("no reply to the journaled request");
    }
    olev::svc::AdminClient admin =
        olev::svc::AdminClient::connect("127.0.0.1", service.admin_port());
    olev::obs::write_file(dir + "/admin.json", admin.request(kHostile));
  } catch (...) {
    service.request_stop();
    loop.join();
    throw;
  }
  service.request_stop();
  loop.join();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s OUT_DIR\n", argv[0]);
    return 2;
  }
  try {
    const std::string dir = argv[1];
    write_metrics(dir);
    write_trace(dir);
    write_admin_and_journal(dir);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "hostile_json: %s\n", error.what());
    return 1;
  }
  return 0;
}
