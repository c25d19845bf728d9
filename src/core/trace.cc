#include "core/trace.h"

#include "obs/strings.h"
#include "util/json.h"

namespace olev::core {

std::string to_json(const GameResult& result) {
  util::JsonWriter json;
  json.begin_object();
  json.key("converged").value(result.converged);
  json.key("updates").value(result.updates);
  json.key("welfare").value(result.welfare);
  json.key("players").value(result.schedule.players());
  json.key("sections").value(result.schedule.sections());

  json.key("requests").value(result.requests);
  json.key("payments").value(result.payments);
  json.key("utilities").value(result.utilities);
  json.key("section_loads").value(result.schedule.column_totals());

  json.key("congestion").begin_object();
  json.key("mean").value(result.congestion.mean);
  json.key("max").value(result.congestion.max);
  json.key("jain_fairness").value(result.congestion.jain_fairness);
  json.key("per_section").value(result.congestion.per_section);
  json.end_object();

  json.key("schedule").begin_array();
  for (std::size_t n = 0; n < result.schedule.players(); ++n) {
    const auto row = result.schedule.row(n);
    json.value(std::vector<double>(row.begin(), row.end()));
  }
  json.end_array();

  json.key("trajectory").begin_array();
  for (const UpdateMetrics& metrics : result.trajectory) {
    json.begin_object();
    json.key("update").value(metrics.update);
    json.key("player").value(metrics.player);
    json.key("request").value(metrics.request);
    json.key("delta").value(metrics.request_delta);
    json.key("welfare").value(metrics.welfare);
    json.key("mean_congestion").value(metrics.mean_congestion);
    json.end_object();
  }
  json.end_array();

  json.end_object();
  return json.str();
}

void save_json(const GameResult& result, const std::string& path) {
  // obs::write_file reports the failing path and errno in its exception.
  obs::write_file(path, to_json(result) + '\n');
}

std::string to_json(const SweepReport& report) {
  util::JsonWriter json;
  json.begin_object();
  json.key("scenarios").value(report.scenarios);
  json.key("threads").value(report.threads);
  json.key("converged").value(report.converged);
  json.key("total_updates").value(report.total_updates);
  json.key("wall_seconds").value(report.wall_seconds);
  json.key("scenarios_per_second").value(report.scenarios_per_second);
  json.key("section_reuse_ratio").value(report.section_reuse_ratio);
  json.key("worker_utilization").value(report.worker_utilization());

  json.key("workers").begin_array();
  for (const SweepWorkerStats& worker : report.workers) {
    json.begin_object();
    json.key("worker").value(worker.worker);
    json.key("scenarios").value(worker.scenarios);
    json.key("busy_seconds").value(worker.busy_seconds);
    json.key("utilization").value(worker.utilization);
    json.end_object();
  }
  json.end_array();

  const auto histogram = [&json](const obs::HistogramSnapshot& snapshot) {
    json.begin_object();
    json.key("name").value(snapshot.name);
    json.key("bounds").value(snapshot.bounds);
    json.key("counts").begin_array();
    for (std::uint64_t c : snapshot.counts) {
      json.value(static_cast<std::size_t>(c));
    }
    json.end_array();
    json.key("count").value(static_cast<std::size_t>(snapshot.count));
    json.key("sum").value(snapshot.sum);
    json.key("mean").value(snapshot.mean());
    json.end_object();
  };
  json.key("updates_per_scenario");
  histogram(report.updates_per_scenario);
  json.key("solve_millis");
  histogram(report.solve_millis);

  json.end_object();
  return json.str();
}

void save_json(const SweepReport& report, const std::string& path) {
  obs::write_file(path, to_json(report) + '\n');
}

}  // namespace olev::core
