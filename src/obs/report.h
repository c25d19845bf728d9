// Sinks for the metrics registry and the tracer: JSON and human-readable
// snapshot exporters, plus the environment-driven export session the
// examples and bench harnesses wire in with one line.
#pragma once

#include <span>
#include <string>

#include "obs/metrics.h"
#include "obs/strings.h"

namespace olev::obs {

/// MetricsSnapshot as a JSON object:
///   {"counters":{name:value,...},
///    "gauges":{name:value,...},
///    "histograms":{name:{"bounds":[...],"counts":[...],"count":n,
///                        "sum":s,"mean":m},...}}
std::string to_json(const MetricsSnapshot& snapshot);

/// Writes the to_json() object as the next value of `json`, so a caller
/// can nest a snapshot inside a larger document (the admin "snapshot").
void write_json(JsonWriter& json, const MetricsSnapshot& snapshot);

/// Aligned plain-text rendering for terminals / run logs.
std::string to_text(const MetricsSnapshot& snapshot);

/// Buckets `values` into a HistogramSnapshot with the same edge semantics
/// as obs::Histogram (first bucket with v <= bounds[i]; overflow last) --
/// used by reports that histogram per-result data deterministically instead
/// of scraping the registry.
HistogramSnapshot bucketize(std::string name, std::vector<double> bounds,
                            std::span<const double> values);

/// Environment-driven export session.  Construct at the top of main():
///   - OLEV_TRACE=<path>: starts the tracer (detail kPhase, or kFine when
///     OLEV_TRACE_DETAIL=fine) and saves the Perfetto/Chrome trace JSON to
///     <path> on destruction;
///   - OLEV_METRICS=<path>: saves a metrics-registry JSON snapshot to
///     <path> on destruction;
///   - OLEV_FLIGHT=<path>: saves the flight-recorder dump
///     (obs/flight.h to_json) to <path> on destruction -- olevd's SIGTERM
///     drain exits through here, so a drained daemon always leaves a
///     post-mortem.
/// Also names the constructing thread's trace lane "main".  Prints one
/// [obs] line per activated export so runs are self-describing; stays
/// completely silent (and does nothing) when neither variable is set.
class EnvSession {
 public:
  EnvSession();
  ~EnvSession();

  EnvSession(const EnvSession&) = delete;
  EnvSession& operator=(const EnvSession&) = delete;

  bool tracing() const { return !trace_path_.empty(); }
  const std::string& trace_path() const { return trace_path_; }
  const std::string& metrics_path() const { return metrics_path_; }
  const std::string& flight_path() const { return flight_path_; }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  std::string flight_path_;
};

}  // namespace olev::obs
