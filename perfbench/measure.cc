#include "measure.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/rng.h"

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0 || !(p > 0.0) || p > 100.0) {
    throw std::invalid_argument("percentile: need samples and 0 < p <= 100");
  }
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(const std::vector<double>& sorted, double p) {
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median: no values");
  std::sort(values.begin(), values.end());
  return values[(values.size() - 1) / 2];
}

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                      double seconds, std::size_t players) {
  if (!(rate_per_s > 0.0) || players == 0) {
    throw std::invalid_argument(
        "poisson_schedule: rate and players must be > 0");
  }
  olev::util::Rng rng(seed);
  std::vector<Arrival> schedule;
  schedule.reserve(static_cast<std::size_t>(rate_per_s * seconds * 1.1) + 16);
  double t = 0.0;
  while (true) {
    t += rng.exponential(rate_per_s);
    if (t >= seconds) break;
    Arrival arrival;
    arrival.due_ns = static_cast<std::int64_t>(t * 1e9);
    arrival.player = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(players) - 1));
    arrival.kw = rng.uniform(1.0, 120.0);
    schedule.push_back(arrival);
  }
  return schedule;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool pin_thread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB (MiB)
    }
  }
  return 0.0;
}

std::string fmt(double value) {
  char text[32];
  std::snprintf(text, sizeof text, "%.6g", value);
  return text;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void Report::end_to_end(const Series& latency_us, double units_per_sample) {
  const std::size_t n = latency_us.size();
  if (samples_beyond(std::max<std::size_t>(n, 1), 90.0) < kMinTail) {
    fail("latency: " + std::to_string(n) + " samples leave fewer than " +
         std::to_string(kMinTail) + " beyond p90");
  }
  std::vector<double> values;
  values.reserve(n);
  double window_s = 0.0;
  for (const Series::Sample& sample : latency_us.samples) {
    values.push_back(sample.value);
    window_s = std::max(window_s, static_cast<double>(sample.at_s));
  }
  if (values.empty()) values.push_back(0.0);
  std::sort(values.begin(), values.end());
  metric("latency_p50_us", percentile(values, 50.0));
  metric("latency_p90_us", percentile(values, 90.0));
  metric("throughput_per_s", static_cast<double>(n) * units_per_sample /
                                 std::max(1e-9, window_s));
  note("samples", std::to_string(n));
}

void Report::percentiles(const std::string& name, std::vector<double> samples) {
  if (samples.empty() || samples_beyond(samples.size(), 90.0) < kMinTail) {
    fail(name + ": " + std::to_string(samples.size()) +
         " samples leave fewer than " + std::to_string(kMinTail) +
         " beyond p90");
    if (samples.empty()) samples.push_back(0.0);
  }
  std::sort(samples.begin(), samples.end());
  metric(name + "_p50_us", percentile(samples, 50.0));
  metric(name + "_p90_us", percentile(samples, 90.0));
}

}  // namespace perfbench
