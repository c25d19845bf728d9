// Observability layer: registry aggregation under concurrent writers,
// histogram bucket edges, span nesting/balance, Perfetto JSON shape, sinks.
//
// Every test uses uniquely named metrics: the registry is process-global
// and cumulative, so sharing names across tests would couple their counts.

#include "obs/obs.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/report.h"
#include "obs/strings.h"

namespace olev::obs {
namespace {

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

// ---------------------------------------------------------------- metrics

TEST(Counter, ConcurrentWritersAggregateExactly) {
  Counter& counter = Registry::instance().counter("test.obs.concurrent");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.total(), kThreads * kPerThread);

  const MetricsSnapshot snapshot = Registry::instance().snapshot();
  EXPECT_EQ(snapshot.counter_value("test.obs.concurrent"),
            kThreads * kPerThread);
  EXPECT_EQ(snapshot.counter_value("test.obs.no_such_counter"), 0u);
}

TEST(Counter, ResetZeroesInPlace) {
  Counter& counter = Registry::instance().counter("test.obs.reset");
  counter.add(41);
  counter.add(1);
  EXPECT_EQ(counter.total(), 42u);
  counter.reset();
  EXPECT_EQ(counter.total(), 0u);
  counter.add(7);
  EXPECT_EQ(counter.total(), 7u);
}

TEST(Gauge, SetAddGet) {
  Gauge& gauge = Registry::instance().gauge("test.obs.gauge");
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.get(), 2.5);
  gauge.add(-0.5);
  EXPECT_DOUBLE_EQ(gauge.get(), 2.0);
  gauge.reset();
  EXPECT_DOUBLE_EQ(gauge.get(), 0.0);
}

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  Histogram& histogram =
      Registry::instance().histogram("test.obs.edges", {10.0, 20.0});
  // v lands in the first bucket with v <= bounds[i]; > back() overflows.
  histogram.observe(-5.0);  // <= 10
  histogram.observe(10.0);  // <= 10 (edge is inclusive)
  histogram.observe(10.5);  // <= 20
  histogram.observe(20.0);  // <= 20 (edge is inclusive)
  histogram.observe(20.1);  // overflow

  const HistogramSnapshot snap = histogram.snapshot();
  ASSERT_EQ(snap.bounds.size(), 2u);
  ASSERT_EQ(snap.counts.size(), 3u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, -5.0 + 10.0 + 10.5 + 20.0 + 20.1);
  EXPECT_DOUBLE_EQ(snap.mean(), snap.sum / 5.0);
}

TEST(Histogram, BoundsAreSortedAndDeduplicated) {
  Histogram& histogram =
      Registry::instance().histogram("test.obs.unsorted", {30.0, 10.0, 30.0});
  const HistogramSnapshot snap = histogram.snapshot();
  ASSERT_EQ(snap.bounds.size(), 2u);
  EXPECT_DOUBLE_EQ(snap.bounds[0], 10.0);
  EXPECT_DOUBLE_EQ(snap.bounds[1], 30.0);
}

TEST(Histogram, ConcurrentObserversAggregateExactly) {
  Histogram& histogram =
      Registry::instance().histogram("test.obs.hist_mt", {0.5});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      // Half the threads land below the bound, half above.
      const double v = t % 2 == 0 ? 0.0 : 1.0;
      for (int i = 0; i < kPerThread; ++i) histogram.observe(v);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(snap.counts[0], static_cast<std::uint64_t>(4 * kPerThread));
  EXPECT_EQ(snap.counts[1], static_cast<std::uint64_t>(4 * kPerThread));
  EXPECT_DOUBLE_EQ(snap.sum, 4.0 * kPerThread);
}

TEST(Registry, SameNameReturnsSameMetric) {
  Counter& a = Registry::instance().counter("test.obs.same");
  Counter& b = Registry::instance().counter("test.obs.same");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = Registry::instance().histogram("test.obs.same_h", {1.0});
  // Later registrations keep the first bounds regardless of what they pass.
  Histogram& h2 =
      Registry::instance().histogram("test.obs.same_h", {5.0, 6.0, 7.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 1u);
}

TEST(Bucketize, MatchesHistogramEdgeSemantics) {
  const std::vector<double> values{-5.0, 10.0, 10.5, 20.0, 20.1};
  const HistogramSnapshot snap =
      bucketize("test.obs.bucketize", {20.0, 10.0}, values);
  ASSERT_EQ(snap.bounds.size(), 2u);  // sorted + deduped
  EXPECT_DOUBLE_EQ(snap.bounds[0], 10.0);
  ASSERT_EQ(snap.counts.size(), 3u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.count, 5u);
}

// --------------------------------------------------------------- escaping

TEST(JsonEscape, ControlCharactersAndSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("n\nr\rt\tb\bf\f"), "n\\nr\\rt\\tb\\bf\\f");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(json_escape(std::string(1, '\x1f')), "\\u001f");
  EXPECT_EQ(json_escape(std::string(1, '\x7f')), "\\u007f");
}

TEST(JsonEscape, NonAsciiBecomesEscapeSequences) {
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\\u00e9");          // é
  EXPECT_EQ(json_escape("\xe2\x82\xac"), "\\u20ac");            // €
  EXPECT_EQ(json_escape("\xf0\x9f\x98\x80"), "\\ud83d\\ude00");  // 😀 -> pair
}

TEST(JsonEscape, MalformedUtf8IsReplacedNotLeaked) {
  // Stray continuation byte, truncated sequence, overlong encoding: all
  // must come out as U+FFFD escapes, never as raw non-ASCII bytes.
  for (const std::string& input :
       {std::string("\x80"), std::string("\xc3"), std::string("\xc0\xaf")}) {
    const std::string escaped = json_escape(input);
    EXPECT_NE(escaped.find("\\ufffd"), std::string::npos) << escaped;
    for (char c : escaped) {
      EXPECT_LT(static_cast<unsigned char>(c), 0x80u);
    }
  }
}

TEST(FormatDouble, NonFiniteMapsToNull) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "null");
}

TEST(FormatDouble, ShortestDecimalRoundTripsBitForBit) {
  const auto round_trips = [](double x) {
    const std::string text = format_double(x);
    return std::bit_cast<std::uint64_t>(std::strtod(text.c_str(), nullptr)) ==
           std::bit_cast<std::uint64_t>(x);
  };
  for (const double x :
       {0.1 + 0.2, 1.0 / 3.0, 123456789012345.0, 7777.425569052123}) {
    EXPECT_TRUE(round_trips(x)) << format_double(x);
  }
  EXPECT_EQ(format_double(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(format_double(-std::numeric_limits<double>::infinity()), "null");
  // Whole numbers stay integers instead of switching to e-notation.
  EXPECT_EQ(format_double(100000.0), "100000");
  EXPECT_EQ(format_double(-4096.0), "-4096");
  // Random bit patterns: every finite double (subnormals included).
  std::uint64_t state = 0x9e3779b97f4a7c15u;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005u + 1442695040888963407u;
    const double x = std::bit_cast<double>(state);
    if (std::isfinite(x)) {
      EXPECT_TRUE(round_trips(x)) << format_double(x);
    }
  }
}

TEST(WriteFile, ErrorNamesPathAndErrno) {
  try {
    write_file("/nonexistent_dir_xyz/out.json", "x");
    FAIL() << "write_file should have thrown";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("/nonexistent_dir_xyz/out.json"), std::string::npos)
        << what;
    // Must carry the strerror text, not just "failed".
    EXPECT_NE(what.find("No such file"), std::string::npos) << what;
  }
}

// ------------------------------------------------------------------ spans

TEST(Tracer, SpansNestAndBalance) {
  Tracer& tracer = Tracer::instance();
  tracer.start();
  {
    ScopedSpan outer("outer", "test");
    outer.arg("answer", 42.0);
    {
      ScopedSpan inner("inner", "test", std::string("label-1"));
      EXPECT_TRUE(inner.active());
    }
  }
  tracer.stop();

  const std::string json = tracer.to_json();
  // Parseable shape, balanced begin/end, nesting order within the lane.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""),
            count_occurrences(json, "\"ph\":\"E\""));
  const std::size_t outer_b = json.find("\"name\":\"outer\",\"cat\":\"test\",\"ph\":\"B\"");
  const std::size_t inner_b = json.find("\"name\":\"inner\",\"cat\":\"test\",\"ph\":\"B\"");
  const std::size_t inner_e = json.find("\"name\":\"inner\",\"cat\":\"test\",\"ph\":\"E\"");
  const std::size_t outer_e = json.find("\"name\":\"outer\",\"cat\":\"test\",\"ph\":\"E\"");
  ASSERT_NE(outer_b, std::string::npos);
  ASSERT_NE(inner_b, std::string::npos);
  ASSERT_NE(inner_e, std::string::npos);
  ASSERT_NE(outer_e, std::string::npos);
  EXPECT_LT(outer_b, inner_b);
  EXPECT_LT(inner_b, inner_e);
  EXPECT_LT(inner_e, outer_e);
  // The label rides on the begin event, numeric args on the end event.
  EXPECT_NE(json.find("\"label\":\"label-1\""), std::string::npos);
  EXPECT_NE(json.find("\"answer\":42"), std::string::npos);
}

TEST(Tracer, SpanOpenAcrossStopStillGetsItsEnd) {
  Tracer& tracer = Tracer::instance();
  tracer.start();
  auto span = std::make_unique<ScopedSpan>("straddler", "test");
  EXPECT_TRUE(span->active());
  tracer.stop();
  span.reset();  // end lands via record_always
  const std::string json = tracer.to_json();
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""),
            count_occurrences(json, "\"ph\":\"E\""));
  EXPECT_NE(json.find("\"name\":\"straddler\",\"cat\":\"test\",\"ph\":\"E\""),
            std::string::npos);
}

TEST(Tracer, DisabledSpansRecordNothing) {
  Tracer& tracer = Tracer::instance();
  tracer.start();
  tracer.stop();  // clears lanes, then disables
  const std::size_t before = tracer.event_count();
  {
    ScopedSpan span("invisible", "test");
    EXPECT_FALSE(span.active());
    span.arg("ignored", 1.0);
  }
  EXPECT_EQ(tracer.event_count(), before);
}

TEST(Tracer, FineSpansOnlyRecordAtFineDetail) {
  Tracer& tracer = Tracer::instance();
  tracer.start(TraceDetail::kPhase);
  {
    ScopedSpan phase_only("fine-span", "test", TraceDetail::kFine);
    EXPECT_FALSE(phase_only.active());
  }
  tracer.stop();
  EXPECT_EQ(tracer.to_json().find("fine-span"), std::string::npos);

  tracer.start(TraceDetail::kFine);
  {
    ScopedSpan fine("fine-span", "test", TraceDetail::kFine);
    EXPECT_TRUE(fine.active());
  }
  tracer.stop();
  EXPECT_NE(tracer.to_json().find("fine-span"), std::string::npos);
}

TEST(Tracer, WorkerLanesCarryThreadNames) {
  Tracer& tracer = Tracer::instance();
  tracer.start();
  std::thread worker([] {
    set_thread_name("test worker");
    ScopedSpan span("on-worker", "test");
  });
  worker.join();
  tracer.stop();
  const std::string json = tracer.to_json();
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"test worker\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"on-worker\""), std::string::npos);
}

// ------------------------------------------------------------------ sinks

TEST(MetricsSinks, JsonAndTextRenderAllKinds) {
  Registry::instance().counter("test.obs.sink_counter").add(3);
  Registry::instance().gauge("test.obs.sink_gauge").set(1.5);
  Registry::instance().histogram("test.obs.sink_hist", {1.0}).observe(0.5);
  const MetricsSnapshot snapshot = Registry::instance().snapshot();

  const std::string json = to_json(snapshot);
  EXPECT_NE(json.find("\"test.obs.sink_counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.sink_gauge\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.sink_hist\":{\"bounds\":[1]"),
            std::string::npos);

  const std::string text = to_text(snapshot);
  EXPECT_NE(text.find("test.obs.sink_counter"), std::string::npos);
  EXPECT_NE(text.find("test.obs.sink_hist"), std::string::npos);
}

TEST(EnvSession, ExportsTraceAndMetricsOnDestruction) {
  const std::string trace_path = ::testing::TempDir() + "/olev_obs_trace.json";
  const std::string metrics_path =
      ::testing::TempDir() + "/olev_obs_metrics.json";
  ::setenv("OLEV_TRACE", trace_path.c_str(), 1);
  ::setenv("OLEV_METRICS", metrics_path.c_str(), 1);
  {
    EnvSession session;
    EXPECT_TRUE(session.tracing());
    ScopedSpan span("env-span", "test");
    Registry::instance().counter("test.obs.env_counter").add(1);
  }
  ::unsetenv("OLEV_TRACE");
  ::unsetenv("OLEV_METRICS");

  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.good());
  std::stringstream trace_buffer;
  trace_buffer << trace.rdbuf();
  EXPECT_NE(trace_buffer.str().find("env-span"), std::string::npos);
  EXPECT_NE(trace_buffer.str().find("\"traceEvents\""), std::string::npos);

  std::ifstream metrics(metrics_path);
  ASSERT_TRUE(metrics.good());
  std::stringstream metrics_buffer;
  metrics_buffer << metrics.rdbuf();
  EXPECT_NE(metrics_buffer.str().find("test.obs.env_counter"),
            std::string::npos);

  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

// ------------------------------------------------------------ macro layer

TEST(Macros, CompileAndCount) {
  for (int i = 0; i < 3; ++i) {
    OLEV_OBS_COUNTER(counter, "test.obs.macro_counter");
    OLEV_OBS_ADD(counter, 2);
    OLEV_OBS_GAUGE(gauge, "test.obs.macro_gauge");
    OLEV_OBS_SET(gauge, static_cast<double>(i));
    OLEV_OBS_HISTOGRAM(histogram, "test.obs.macro_hist", {1.0, 2.0});
    OLEV_OBS_OBSERVE(histogram, 1.5);
    OLEV_OBS_SPAN(span, "macro-span", "test");
    OLEV_OBS_SPAN_ARG(span, "i", static_cast<double>(i));
    OLEV_OBS_ONLY(const double only_value = 1.0; (void)only_value;)
  }
#if OLEV_OBS_ENABLED
  const MetricsSnapshot snapshot = Registry::instance().snapshot();
  EXPECT_EQ(snapshot.counter_value("test.obs.macro_counter"), 6u);
  ASSERT_NE(snapshot.histogram("test.obs.macro_hist"), nullptr);
  EXPECT_EQ(snapshot.histogram("test.obs.macro_hist")->count, 3u);
#endif
}

}  // namespace
}  // namespace olev::obs
