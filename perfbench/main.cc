// perfbench_harness: runs one workload in this process and prints one JSON
// line -- the gate verdicts, operation accounting, metrics and provenance.
// perfbench/run.py builds it, starts one process per workload and turns
// that line into the benchmark's result.
//
//   perfbench_harness --workload solve_paper|serve_exact|serve_durable
//                     --seed N --seconds S --state-dir DIR
//                     [--trace-out FILE.json]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "obs/strings.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Report;

bool parse(int argc, char** argv, Options& options) try {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--state-dir") {
      options.state_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options.workload.empty() &&
         !options.state_dir.empty() && options.seconds > 0;
} catch (const std::exception&) {
  return false;  // a number that does not parse
}

void print(const Options& options, const Report& report) {
  using olev::obs::json_escape;
  std::string out = "{\"workload\":\"" + json_escape(options.workload) +
                    "\",\"correct\":" +
                    (report.errors.empty() ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(report.attempted) +
                    ",\"failed\":" + std::to_string(report.failed) +
                    ",\"errors\":[";
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    out += (i ? ",\"" : "\"") + json_escape(report.errors[i]) + "\"";
  }
  out += "],\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", report.metrics[i].second);
    out += (i ? ",\"" : "\"") + json_escape(report.metrics[i].first) +
           "\":" + number;
  }
  out += "},\"info\":{";
  for (std::size_t i = 0; i < report.info.size(); ++i) {
    out += (i ? ",\"" : "\"") + json_escape(report.info[i].first) +
           "\":\"" + json_escape(report.info[i].second) + "\"";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::cerr << "usage: perfbench_harness --workload W --seed N --seconds S "
                 "--state-dir DIR [--trace-out FILE]\n";
    return 2;
  }
  // Pin to one CPU: a request then never waits for a wake-up on another
  // CPU, whose latency on a shared VM swings by milliseconds between runs.
  options.cpus = perfbench::allowed_cpus();
  const int cpu =
      !options.cpus.empty() && perfbench::pin_thread(options.cpus.back())
          ? options.cpus.back()
          : -1;
  Report report;
  try {
    std::filesystem::create_directories(options.state_dir);
    perfbench::Tracer tracer;
    perfbench::Tracer* traced = options.traced() ? &tracer : nullptr;
    if (options.workload == "solve_paper") {
      report = perfbench::run_solve_paper(options, traced);
    } else if (options.workload == "serve_exact") {
      report = perfbench::run_serve_exact(options, traced);
    } else if (options.workload == "serve_durable") {
      report = perfbench::run_serve_durable(options, traced);
    } else {
      std::cerr << "perfbench_harness: unknown workload " << options.workload
                << "\n";
      return 2;
    }
    if (traced != nullptr) {
      tracer.write_chrome_json(options.trace_path);
      report.metric("trace.spans", static_cast<double>(tracer.span_count()));
      report.note("trace_file", options.trace_path);
    }
  } catch (const std::exception& error) {
    report.fail(std::string("aborted: ") + error.what());
  }
  report.metric("peak_rss_mb", perfbench::peak_rss_mb());
  for (auto& [name, value] : report.metrics) {
    if (!std::isfinite(value)) {
      report.fail("metric " + name + " is not finite");
      value = 0.0;
    }
  }
  report.note("nproc", std::to_string(options.cpus.size()));
  report.note("pinned_cpu", std::to_string(cpu));
  report.note("seed", std::to_string(options.seed));
  print(options, report);
  return report.errors.empty() ? 0 : 1;
}
