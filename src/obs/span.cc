#include "obs/span.h"

#include <chrono>

#include "obs/strings.h"

namespace olev::obs {

std::int64_t now_micros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Lane& Tracer::local_lane() {
  // The shared_ptr keeps the lane alive after its thread exits, so worker
  // lanes spawned inside a finished sweep still export.
  thread_local std::shared_ptr<Lane> lane = [this] {
    auto fresh = std::make_shared<Lane>();
    MutexLock lock(lanes_mutex_);
    fresh->tid = static_cast<int>(lanes_.size()) + 1;
    lanes_.push_back(fresh);
    return fresh;
  }();
  // A second Tracer never exists (singleton), so `this` always matches the
  // instance that registered the lane.
  return *lane;
}

void Tracer::start(TraceDetail detail) {
  MutexLock lock(lanes_mutex_);
  for (const std::shared_ptr<Lane>& lane : lanes_) {
    MutexLock lane_lock(lane->mutex);
    lane->events.clear();
  }
  dropped_.store(0, std::memory_order_relaxed);
  epoch_us_ = now_micros();
  fine_.store(detail == TraceDetail::kFine, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_release);
}

void Tracer::stop() { enabled_.store(false, std::memory_order_release); }

void Tracer::set_thread_name(std::string name) {
  Lane& lane = local_lane();
  MutexLock lock(lane.mutex);
  lane.name = std::move(name);
}

bool Tracer::lane_has_room() {
  Lane& lane = local_lane();
  MutexLock lock(lane.mutex);
  // A begin/end pair needs two slots.
  return lane.events.size() + 2 <= max_events_per_lane_;
}

void Tracer::record(TraceEvent event) {
  if (!enabled()) return;
  record_always(std::move(event));
}

void Tracer::record_always(TraceEvent event) {
  Lane& lane = local_lane();
  MutexLock lock(lane.mutex);
  lane.events.push_back(std::move(event));
}

std::size_t Tracer::event_count() const {
  MutexLock lock(lanes_mutex_);
  std::size_t count = 0;
  for (const std::shared_ptr<Lane>& lane : lanes_) {
    MutexLock lane_lock(lane->mutex);
    count += lane->events.size();
  }
  return count;
}

std::string Tracer::to_json() const {
  std::vector<std::shared_ptr<Lane>> lanes;
  std::int64_t epoch;
  {
    MutexLock lock(lanes_mutex_);
    lanes = lanes_;
    epoch = epoch_us_;
  }

  JsonWriter json;
  json.begin_object();
  json.key("displayTimeUnit").value("ms");
  json.key("traceEvents").begin_array();
  const auto metadata = [&json](const char* name, int tid,
                                std::string_view label) {
    json.begin_object();
    json.key("name").value(name);
    json.key("ph").value("M");
    json.key("pid").value(1);
    json.key("tid").value(tid);
    json.key("args").begin_object().key("name").value(label).end_object();
    json.end_object();
  };
  metadata("process_name", 0, "olev");
  for (const std::shared_ptr<Lane>& lane : lanes) {
    MutexLock lane_lock(lane->mutex);
    if (!lane->name.empty()) metadata("thread_name", lane->tid, lane->name);
    for (const TraceEvent& event : lane->events) {
      json.begin_object();
      json.key("name").value(event.name);
      json.key("cat").value(event.category);
      json.key("ph").value(std::string_view(&event.phase, 1));
      json.key("ts").value(event.ts_us - epoch);
      json.key("pid").value(1);
      json.key("tid").value(lane->tid);
      if (event.nargs > 0 || !event.detail.empty()) {
        json.key("args").begin_object();
        if (!event.detail.empty()) json.key("label").value(event.detail);
        for (int i = 0; i < event.nargs; ++i) {
          const auto& [arg, number] = event.args[static_cast<std::size_t>(i)];
          json.key(arg).value(number);
        }
        json.end_object();
      }
      json.end_object();
    }
  }
  json.end_array();
  json.end_object();
  return std::move(json).str();
}

void Tracer::save(const std::string& path) const {
  write_file(path, to_json() + "\n");
}

ScopedSpan::ScopedSpan(const char* name, const char* category)
    : name_(name), category_(category) {
  if (!Tracer::instance().enabled()) return;
  begin({});
}

ScopedSpan::ScopedSpan(const char* name, const char* category,
                       std::string label)
    : name_(name), category_(category) {
  if (!Tracer::instance().enabled()) return;
  begin(std::move(label));
}

ScopedSpan::ScopedSpan(const char* name, const char* category,
                       TraceDetail level)
    : name_(name), category_(category) {
  Tracer& tracer = Tracer::instance();
  if (level == TraceDetail::kFine ? !tracer.fine_enabled() : !tracer.enabled())
    return;
  begin({});
}

void ScopedSpan::begin(std::string label) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.lane_has_room()) {
    // Cap hit: drop the whole span (begin AND end) so the trace stays
    // balanced, and account for it.
    tracer.note_dropped_span();
    return;
  }
  active_ = true;
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.phase = 'B';
  event.ts_us = now_micros();
  event.detail = std::move(label);
  tracer.record_always(event);
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  TraceEvent event;
  event.name = name_;
  event.category = category_;
  event.phase = 'E';
  event.ts_us = now_micros();
  event.args = args_;
  event.nargs = nargs_;
  // record_always: a begin was written, so the end must land even if the
  // tracer was stopped while this span was open.
  Tracer::instance().record_always(std::move(event));
}

void set_thread_name(std::string name) {
  Tracer::instance().set_thread_name(std::move(name));
}

}  // namespace olev::obs
