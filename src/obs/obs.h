// Umbrella header for instrumentation sites: pulls in the metrics registry
// and the span tracer and defines the OLEV_OBS_* macros that make
// instrumentation vanish under -DOLEV_OBS=OFF.
//
// Contract (mirrors src/util/audit.h): the obs support code -- registry,
// tracer, sinks -- is ALWAYS compiled so every build flavor links and tests
// can scrape; only the call sites expand to nothing.  A disabled build has
// literally zero instrumentation instructions on the hot path.
//
// Usage:
//   OLEV_OBS_COUNTER(runs, "core.game.runs");
//   OLEV_OBS_ADD(runs, 1);
//
//   OLEV_OBS_HISTOGRAM(iters, "core.best_response.iterations",
//                      {0, 1, 2, 3, 4, 6, 8, 12});
//   OLEV_OBS_OBSERVE(iters, response.iterations);
//
//   OLEV_OBS_SPAN(span, "game.run", "solver");
//   OLEV_OBS_SPAN_ARG(span, "updates", updates);
//
// The metric/histogram handles are function-local static references: the
// registry lookup happens once per call site, the increment is a relaxed
// atomic on a per-thread stripe.  docs/OBSERVABILITY.md catalogs every
// metric and span name.
#pragma once

#include <optional>

#include "obs/metrics.h"
#include "obs/span.h"

#if defined(OLEV_OBS_DISABLED)
#define OLEV_OBS_ENABLED 0
#else
#define OLEV_OBS_ENABLED 1
#endif

#if OLEV_OBS_ENABLED

#define OLEV_OBS_COUNTER(var, name)     \
  static ::olev::obs::Counter& var =    \
      ::olev::obs::Registry::instance().counter(name)
#define OLEV_OBS_GAUGE(var, name)       \
  static ::olev::obs::Gauge& var =      \
      ::olev::obs::Registry::instance().gauge(name)
// `...` is the brace-enclosed bucket-bound list (its commas split macro
// arguments, so it must ride in the variadic tail).
#define OLEV_OBS_HISTOGRAM(var, name, ...) \
  static ::olev::obs::Histogram& var =     \
      ::olev::obs::Registry::instance().histogram((name), __VA_ARGS__)
#define OLEV_OBS_ADD(var, n) (var).add(n)
#define OLEV_OBS_SET(var, v) (var).set(v)
#define OLEV_OBS_OBSERVE(var, v) (var).observe(v)

#define OLEV_OBS_SPAN(var, name, category) \
  ::olev::obs::ScopedSpan var { (name), (category) }
#define OLEV_OBS_SPAN_LABELED(var, name, category, label) \
  ::olev::obs::ScopedSpan var { (name), (category), (label) }
// Fine spans only record when the tracer was started at kFine detail --
// they sit in per-update code whose event volume would swamp a phase trace.
// `live` is Tracer::instance().fine_enabled(), read once before the loop,
// so an iteration with fine tracing off costs one branch and no call.
#define OLEV_OBS_FINE_SPAN(var, live, name, category) \
  std::optional<::olev::obs::ScopedSpan> var;         \
  if (live) var.emplace((name), (category), ::olev::obs::TraceDetail::kFine)
#define OLEV_OBS_SPAN_ARG(var, key, value) (var).arg((key), (value))

// Statement(s) compiled only when observability is on (timestamp capture,
// derived-value computation feeding OLEV_OBS_* calls).
#define OLEV_OBS_ONLY(...) __VA_ARGS__

#else  // OLEV_OBS_ENABLED

#define OLEV_OBS_COUNTER(var, name) static_cast<void>(0)
#define OLEV_OBS_GAUGE(var, name) static_cast<void>(0)
#define OLEV_OBS_HISTOGRAM(var, name, ...) static_cast<void>(0)
#define OLEV_OBS_ADD(var, n) static_cast<void>(0)
#define OLEV_OBS_SET(var, v) static_cast<void>(0)
#define OLEV_OBS_OBSERVE(var, v) static_cast<void>(0)

#define OLEV_OBS_SPAN(var, name, category) \
  [[maybe_unused]] ::olev::obs::NullSpan var {}
#define OLEV_OBS_SPAN_LABELED(var, name, category, label) \
  [[maybe_unused]] ::olev::obs::NullSpan var {}
#define OLEV_OBS_FINE_SPAN(var, live, name, category) \
  [[maybe_unused]] ::olev::obs::NullSpan var {}
#define OLEV_OBS_SPAN_ARG(var, key, value) static_cast<void>(0)

#define OLEV_OBS_ONLY(...)

#endif  // OLEV_OBS_ENABLED
