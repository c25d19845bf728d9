// In-memory span recorder for the traced run.
//
// The harness opens a span around each call it makes into a layer's public
// function (core, svc, net, persist, obs); the program itself is not
// instrumented.  Each recording thread owns one Lane, so recording takes no
// lock.  Spans name their parent by index within the lane; a request's
// server-side phases, echoed on its ScheduleMsg, are added afterwards as
// children of the request span.  Spans stay in memory and are written once,
// at exit, as Chrome trace-event JSON (B/E pairs, ui.perfetto.dev loads it).
//
// Self time is a span's duration minus the part of it its children cover.
// A child is clipped to its parent first: an echoed server phase, stamped
// in whole microseconds on another clock reading, may overrun its request.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string_view name;  ///< a string literal: "<layer>.<call>"
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index in the same lane; -1 for a root
  std::uint64_t trace_id = 0;  ///< the request's wire trace_id, 0 if none

  std::int64_t duration_ns() const { return end_ns - begin_ns; }
};

/// One thread's spans.  Not thread-safe: only its owner records into it.
class Lane {
 public:
  explicit Lane(std::string name) : name_(std::move(name)) {}

  /// Opens a span now; close it with end().  Returns its index.
  std::int32_t begin(std::string_view name, std::int32_t parent = -1,
                     std::uint64_t trace_id = 0);
  void end(std::int32_t index);
  /// Records a finished span.
  std::int32_t add(std::string_view name, std::int64_t begin_ns,
                   std::int64_t end_ns, std::int32_t parent = -1,
                   std::uint64_t trace_id = 0);

  const std::string& name() const { return name_; }
  const std::vector<Span>& spans() const { return spans_; }
  Span& at(std::int32_t index) {
    return spans_[static_cast<std::size_t>(index)];
  }

 private:
  std::string name_;
  std::vector<Span> spans_;
};

/// Self time of every span in `spans`, in ns, index for index: never
/// negative.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// The lanes of one run.  Lanes are created before the threads that use
/// them start, and written after those threads are joined.
class Tracer {
 public:
  Lane& lane(std::string name) { return lanes_.emplace_back(std::move(name)); }

  /// Durations (us) of every span called `name`, over all lanes.
  std::vector<double> durations_us(std::string_view name) const;
  /// Self times (us) of every span called `name`, over all lanes.
  std::vector<double> self_us(std::string_view name) const;
  std::size_t span_count() const;

  /// Writes Chrome trace JSON: one tid per lane slot.  Overlapping roots of a
  /// lane (pipelined requests) go to separate slots so B/E pairs nest.  The
  /// first 4000 root spans per lane, with all their descendants, are
  /// written, which bounds the file.  Throws std::runtime_error on I/O error.
  void write_chrome_json(const std::string& path) const;

 private:
  std::deque<Lane> lanes_;  ///< deque: a new lane never moves the others
};

/// Opens a span on construction and closes it on destruction.  A null lane
/// (the untraced run) records nothing.
class Scope {
 public:
  Scope(Lane* lane, std::string_view name, std::int32_t parent = -1,
        std::uint64_t trace_id = 0)
      : lane_(lane),
        index_(lane != nullptr ? lane->begin(name, parent, trace_id) : -1) {}
  ~Scope() {
    if (lane_ != nullptr) lane_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int32_t index() const { return index_; }

 private:
  Lane* lane_;
  std::int32_t index_;
};

}  // namespace perfbench
