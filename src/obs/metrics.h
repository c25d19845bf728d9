// Metrics registry: named counters, gauges and fixed-bucket histograms with
// per-thread-striped storage, aggregated only at scrape time.
//
// Design constraints (docs/OBSERVABILITY.md):
//   - the write path is a single relaxed atomic RMW on a cache-line-padded
//     stripe picked by a thread-local id, so concurrent writers never
//     contend and the solver hot path stays at recorded bench parity;
//   - the registry hands out stable references (call sites cache them in
//     function-local statics via the OLEV_OBS_* macros in obs/obs.h), so
//     the name lookup happens once per process, not per increment;
//   - reads (snapshot) sum the stripes; they are racy-by-design against
//     in-flight writers but every access is atomic, so the result is a
//     consistent "at least everything that happened-before" view and the
//     layer is ThreadSanitizer-clean;
//   - reset() zeroes the stripes in place.  The registry is process-global
//     and cumulative: scoping a measurement means snapshot-before /
//     snapshot-after or an explicit reset at a quiescent point.
//
// This library sits BELOW src/util (the thread pool is itself instrumented),
// so it depends on nothing but the standard library.  The OLEV_OBS=OFF
// compile-out contract mirrors src/util/audit.h: this support code is always
// compiled so any build flavor can link and scrape, and only the
// instrumentation sites (the macros in obs/obs.h) vanish.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync.h"

namespace olev::obs {

/// Number of independent stripes per metric.  More stripes = less false
/// sharing under heavy concurrency, more memory per metric (one cache line
/// each) and more work per scrape.  16 covers the sweep pools we spawn.
inline constexpr std::size_t kStripes = 16;

/// Stable small id for the calling thread, used to pick a stripe.  Ids are
/// handed out in registration order and never reused.
std::size_t thread_stripe();

namespace detail {
struct alignas(64) U64Cell {
  std::atomic<std::uint64_t> value{0};
};
struct alignas(64) F64Cell {
  std::atomic<double> value{0.0};
};
/// Relaxed add for atomic<double> via compare-exchange (fetch_add on
/// floating atomics is C++20 but not universally lock-free; CAS always is
/// where the platform has 64-bit CAS).
void atomic_add(std::atomic<double>& cell, double delta);
}  // namespace detail

/// Monotone event count.  add() is wait-free modulo the stripe's RMW.
class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  const std::string& name() const { return name_; }

  void add(std::uint64_t n = 1) {
    cells_[thread_stripe() % kStripes].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  /// Sum over stripes (racy-but-atomic snapshot).
  std::uint64_t total() const;
  void reset();

 private:
  std::string name_;
  std::array<detail::U64Cell, kStripes> cells_;
};

/// Last-writer-wins instantaneous value (queue depths, utilization).
class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  const std::string& name() const { return name_; }
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) { detail::atomic_add(value_, delta); }
  double get() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::string name_;
  std::atomic<double> value_{0.0};
};

/// Scrape-time view of one histogram.  `bounds` are inclusive upper bucket
/// edges in ascending order; counts has bounds.size() + 1 entries, the last
/// being the overflow bucket (> bounds.back()).  A value v lands in the
/// first bucket with v <= bounds[i].
struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;

  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
};

/// Fixed-bucket histogram.  observe() is two relaxed RMWs plus a binary
/// search over the (small, immutable) bound list.
class Histogram {
 public:
  Histogram(std::string name, std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  const std::string& name() const { return name_; }
  const std::vector<double>& bounds() const { return bounds_; }

  void observe(double v);
  /// Adds a caller's own tally in one go: `counts` per bucket (bounds().size()
  /// + 1 entries, as HistogramSnapshot::counts) and their `sum`.  Leaves the
  /// snapshot the equivalent observe() calls would (the sum exactly when the
  /// values are integers); throws std::invalid_argument on a bucket-count
  /// mismatch.
  void merge(std::span<const std::uint64_t> counts, double sum);
  HistogramSnapshot snapshot() const;
  void reset();

 private:
  struct Stripe {
    std::vector<detail::U64Cell> counts;  ///< bounds.size() + 1 entries
    detail::F64Cell sum;
  };

  std::string name_;
  std::vector<double> bounds_;
  std::array<Stripe, kStripes> stripes_;
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};
struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};

/// Full scrape, sorted by metric name within each kind.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Counter value by exact name; 0 when absent.
  std::uint64_t counter_value(std::string_view name) const;
  /// Histogram by exact name; nullptr when absent.
  const HistogramSnapshot* histogram(std::string_view name) const;
};

/// Process-global metric registry.  Metric objects live for the process
/// lifetime, so the references handed out stay valid forever.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(std::string_view name) OLEV_EXCLUDES(mutex_);
  Gauge& gauge(std::string_view name) OLEV_EXCLUDES(mutex_);
  /// First registration fixes the bucket bounds; later calls with the same
  /// name return the existing histogram regardless of the bounds passed.
  Histogram& histogram(std::string_view name, std::initializer_list<double> bounds)
      OLEV_EXCLUDES(mutex_);
  Histogram& histogram(std::string_view name, std::vector<double> bounds)
      OLEV_EXCLUDES(mutex_);

  MetricsSnapshot snapshot() const OLEV_EXCLUDES(mutex_);
  /// Explicit reset semantics: zeroes every metric in place (names and
  /// bucket layouts survive).  Intended for scoping a measurement at a
  /// quiescent point; concurrent writers lose at most in-flight deltas.
  void reset() OLEV_EXCLUDES(mutex_);

 private:
  Registry() = default;

  // mutex_ guards only the name -> metric maps (registration and scrape);
  // the metric objects themselves are written lock-free through striped
  // relaxed atomics and handed out as stable references.
  mutable Mutex mutex_{"obs.registry"};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      OLEV_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      OLEV_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      OLEV_GUARDED_BY(mutex_);
};

}  // namespace olev::obs
