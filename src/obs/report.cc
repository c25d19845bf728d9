#include "obs/report.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/flight.h"
#include "obs/span.h"
#include "obs/strings.h"

namespace olev::obs {

void write_json(JsonWriter& json, const MetricsSnapshot& snapshot) {
  json.begin_object();
  json.key("counters").begin_object();
  for (const CounterSnapshot& counter : snapshot.counters) {
    json.key(counter.name).value(counter.value);
  }
  json.end_object();
  json.key("gauges").begin_object();
  for (const GaugeSnapshot& gauge : snapshot.gauges) {
    json.key(gauge.name).value(gauge.value);
  }
  json.end_object();
  json.key("histograms").begin_object();
  for (const HistogramSnapshot& histogram : snapshot.histograms) {
    json.key(histogram.name).begin_object();
    json.key("bounds").value(histogram.bounds);
    json.key("counts").begin_array();
    for (std::uint64_t count : histogram.counts) json.value(count);
    json.end_array();
    json.key("count").value(histogram.count);
    json.key("sum").value(histogram.sum);
    json.key("mean").value(histogram.mean());
    json.end_object();
  }
  json.end_object();
  json.end_object();
}

std::string to_json(const MetricsSnapshot& snapshot) {
  JsonWriter json;
  write_json(json, snapshot);
  return std::move(json).str();
}

std::string to_text(const MetricsSnapshot& snapshot) {
  std::string out;
  std::size_t width = 0;
  for (const CounterSnapshot& c : snapshot.counters)
    width = std::max(width, c.name.size());
  for (const GaugeSnapshot& g : snapshot.gauges)
    width = std::max(width, g.name.size());
  for (const HistogramSnapshot& h : snapshot.histograms)
    width = std::max(width, h.name.size());

  auto pad = [&](const std::string& name) {
    std::string padded = name;
    padded.append(width > name.size() ? width - name.size() : 0, ' ');
    return padded;
  };
  for (const CounterSnapshot& counter : snapshot.counters) {
    out += pad(counter.name);
    out += "  ";
    out += std::to_string(counter.value);
    out += '\n';
  }
  for (const GaugeSnapshot& gauge : snapshot.gauges) {
    out += pad(gauge.name);
    out += "  ";
    out += format_double(gauge.value);
    out += '\n';
  }
  for (const HistogramSnapshot& histogram : snapshot.histograms) {
    out += pad(histogram.name);
    out += "  count=";
    out += std::to_string(histogram.count);
    out += " mean=";
    out += format_double(histogram.mean());
    out += "  [";
    for (std::size_t i = 0; i < histogram.counts.size(); ++i) {
      if (i > 0) out += ' ';
      if (i < histogram.bounds.size()) {
        out += "<=";
        out += format_double(histogram.bounds[i]);
      } else {
        out += '>';
        out += format_double(histogram.bounds.empty() ? 0.0
                                                      : histogram.bounds.back());
      }
      out += ':';
      out += std::to_string(histogram.counts[i]);
    }
    out += "]\n";
  }
  return out;
}

HistogramSnapshot bucketize(std::string name, std::vector<double> bounds,
                            std::span<const double> values) {
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  HistogramSnapshot snap;
  snap.name = std::move(name);
  snap.bounds = std::move(bounds);
  snap.counts.assign(snap.bounds.size() + 1, 0);
  for (double v : values) {
    const std::size_t bucket = static_cast<std::size_t>(
        std::lower_bound(snap.bounds.begin(), snap.bounds.end(), v) -
        snap.bounds.begin());
    ++snap.counts[bucket];
    snap.sum += v;
    ++snap.count;
  }
  return snap;
}

namespace {
std::string env_or_empty(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr ? std::string() : std::string(value);
}
}  // namespace

EnvSession::EnvSession()
    : trace_path_(env_or_empty("OLEV_TRACE")),
      metrics_path_(env_or_empty("OLEV_METRICS")),
      flight_path_(env_or_empty("OLEV_FLIGHT")) {
  if (trace_path_.empty() && metrics_path_.empty() && flight_path_.empty()) {
    return;
  }
  set_thread_name("main");
  if (!trace_path_.empty()) {
    const bool fine = env_or_empty("OLEV_TRACE_DETAIL") == "fine";
    Tracer::instance().start(fine ? TraceDetail::kFine : TraceDetail::kPhase);
    std::fprintf(stderr, "[obs] tracing enabled (%s detail) -> %s\n",
                 fine ? "fine" : "phase", trace_path_.c_str());
  }
  if (!metrics_path_.empty()) {
    std::fprintf(stderr, "[obs] metrics snapshot on exit -> %s\n",
                 metrics_path_.c_str());
  }
  if (!flight_path_.empty()) {
    std::fprintf(stderr, "[obs] flight-recorder dump on exit -> %s\n",
                 flight_path_.c_str());
  }
}

EnvSession::~EnvSession() {
  // Destructors must not throw; report sink failures and carry on.
  if (!trace_path_.empty()) {
    Tracer& tracer = Tracer::instance();
    tracer.stop();
    try {
      tracer.save(trace_path_);
      std::fprintf(stderr, "[obs] trace saved: %zu events -> %s\n",
                   tracer.event_count(), trace_path_.c_str());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "[obs] trace save FAILED: %s\n", error.what());
    }
  }
  if (!metrics_path_.empty()) {
    try {
      write_file(metrics_path_,
                 to_json(Registry::instance().snapshot()) + "\n");
      std::fprintf(stderr, "[obs] metrics saved -> %s\n",
                   metrics_path_.c_str());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "[obs] metrics save FAILED: %s\n", error.what());
    }
  }
  if (!flight_path_.empty()) {
    try {
      const std::vector<flight::Record> records = flight::snapshot();
      write_file(flight_path_, flight::to_json(records) + "\n");
      std::fprintf(stderr, "[obs] flight dump saved: %zu events -> %s\n",
                   records.size(), flight_path_.c_str());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "[obs] flight dump FAILED: %s\n", error.what());
    }
  }
}

}  // namespace olev::obs
