// Measurement primitives shared by every workload: the clock, the
// percentile definition, the open-loop arrival schedule and the report a
// workload hands back to main().
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nanoseconds on std::chrono::steady_clock -- the clock obs::now_micros()
/// stamps the server's phases with, so client and server times compare.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ns_to_us(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-3;
}

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it, i.e. sorted[ceil(p/100 * n) - 1].  `sorted` must
/// be ascending and non-empty; 0 < p <= 100.
double percentile(const std::vector<double>& sorted, double p);

/// Samples strictly beyond the nearest-rank p-th percentile: n - rank.  A
/// reported percentile needs at least kMinTail of them.
std::size_t samples_beyond(std::size_t n, double p);
inline constexpr std::size_t kMinTail = 10;

/// Set-ups per run.  setup_s is their median, which leaves kMinTail set-ups
/// on either side of it.
inline constexpr int kSetups = 2 * kMinTail + 1;

/// Median of a copy of `values` (the lower middle for an even count, so the
/// result is always one of the measured values).
double median(std::vector<double> values);

/// A timing series: each operation's value and when it completed, counted
/// from the measurement window's start.  Eight bytes a sample, so the
/// harness's own memory stays small next to the program's.
struct Series {
  struct Sample {
    float at_s;
    float value;
  };
  std::int64_t origin_ns = 0;  ///< the window's start
  std::vector<Sample> samples;

  void add(std::int64_t at_ns, double value) {
    const double at_s = static_cast<double>(at_ns - origin_ns) * 1e-9;
    samples.push_back({static_cast<float>(at_s), static_cast<float>(value)});
  }
  std::size_t size() const { return samples.size(); }
};


/// One open-loop request: when it is due, for whom, and how much.
struct Arrival {
  std::int64_t due_ns = 0;  ///< offset from the start of the window
  std::uint32_t player = 0;
  double kw = 0.0;
};

/// Poisson arrivals at `rate_per_s` over `seconds`, players uniform in
/// [0, players) and requests uniform in [1, 120) kW.  A function of its
/// arguments only: the same seed always gives the same schedule.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                      double seconds, std::size_t players);

/// The CPUs this process may run on, ascending (sched_getaffinity).
std::vector<int> allowed_cpus();

/// Pins the calling thread, and every thread it starts afterwards, to
/// `cpu`.  Returns false if the kernel refuses (the run goes on unpinned).
bool pin_thread(int cpu);

/// Peak resident set of this process in MiB (VmHWM from /proc/self/status).
double peak_rss_mb();

/// `value` with six significant digits, for messages.
std::string fmt(double value);

/// True when the two spans hold the same doubles, bit for bit.
bool same_bits(std::span<const double> a, std::span<const double> b);

/// What a workload hands back: the operation accounting, the gate verdicts,
/// named metrics (end-to-end and, in traced runs, per-layer) and free-form
/// provenance for the log.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< gate failures; any fails the run
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  void metric(std::string name, double value) {
    metrics.emplace_back(std::move(name), value);
  }
  void note(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  void fail(std::string why) { errors.push_back(std::move(why)); }

  /// Adds latency_p50_us and latency_p90_us, nearest rank over every sample,
  /// and throughput_per_s: samples times `units_per_sample` per second of
  /// the window, from its origin to the last sample's completion.  A series
  /// with fewer than kMinTail samples beyond p90 fails the run.
  void end_to_end(const Series& latency_us, double units_per_sample = 1.0);

  /// Adds `name`_p50_us and `name`_p90_us (nearest rank) of `samples_us`; a
  /// sample set too small to have kMinTail samples beyond p90 fails the run.
  void percentiles(const std::string& name, std::vector<double> samples_us);
};

/// Options every workload receives from the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string state_dir;  ///< snapshot files; inside the checkout
  std::string trace_path;  ///< non-empty: traced run, Chrome trace written here
  /// CPUs available before the harness pinned itself to the last of them
  /// (nproc, for the log and for serve_durable's connection count).
  std::vector<int> cpus;
  bool traced() const { return !trace_path.empty(); }
};

}  // namespace perfbench
