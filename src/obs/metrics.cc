#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>

namespace olev::obs {

std::size_t thread_stripe() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

namespace detail {

void atomic_add(std::atomic<double>& cell, double delta) {
  double expected = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(expected, expected + delta,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace detail

std::uint64_t Counter::total() const {
  std::uint64_t sum = 0;
  for (const detail::U64Cell& cell : cells_) {
    sum += cell.value.load(std::memory_order_relaxed);
  }
  return sum;
}

void Counter::reset() {
  for (detail::U64Cell& cell : cells_) {
    cell.value.store(0, std::memory_order_relaxed);
  }
}

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  for (Stripe& stripe : stripes_) {
    stripe.counts = std::vector<detail::U64Cell>(bounds_.size() + 1);
  }
}

void Histogram::observe(double v) {
  // First bucket whose inclusive upper edge admits v; values beyond the
  // last edge land in the overflow bucket.
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  Stripe& stripe = stripes_[thread_stripe() % kStripes];
  stripe.counts[bucket].value.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(stripe.sum.value, v);
}

void Histogram::merge(std::span<const std::uint64_t> counts, double sum) {
  if (counts.size() != bounds_.size() + 1) {
    throw std::invalid_argument("Histogram::merge: " + name_ +
                                " bucket count mismatch");
  }
  Stripe& stripe = stripes_[thread_stripe() % kStripes];
  for (std::size_t i = 0; i < counts.size(); ++i) {
    stripe.counts[i].value.fetch_add(counts[i], std::memory_order_relaxed);
  }
  detail::atomic_add(stripe.sum.value, sum);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.name = name_;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  for (const Stripe& stripe : stripes_) {
    for (std::size_t i = 0; i < stripe.counts.size(); ++i) {
      snap.counts[i] += stripe.counts[i].value.load(std::memory_order_relaxed);
    }
    snap.sum += stripe.sum.value.load(std::memory_order_relaxed);
  }
  for (std::uint64_t c : snap.counts) snap.count += c;
  return snap;
}

void Histogram::reset() {
  for (Stripe& stripe : stripes_) {
    for (detail::U64Cell& cell : stripe.counts) {
      cell.value.store(0, std::memory_order_relaxed);
    }
    stripe.sum.value.store(0.0, std::memory_order_relaxed);
  }
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name) const {
  for (const CounterSnapshot& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    std::string_view name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<Counter>(std::string(name)))
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  MutexLock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name), std::make_unique<Gauge>(std::string(name)))
             .first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::initializer_list<double> bounds) {
  return histogram(name, std::vector<double>(bounds));
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  MutexLock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(
                                             std::string(name), std::move(bounds)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
  MutexLock lock(mutex_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->total()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back({name, gauge->get()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms.push_back(histogram->snapshot());
  }
  return snap;
}

void Registry::reset() {
  MutexLock lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

}  // namespace olev::obs
