// Tests of the benchmark's own arithmetic: the percentile definition, the
// end-to-end metrics, the seeded Poisson schedule, span self times and the
// Chrome trace writer.  The trace this writes is then checked for B/E
// balance by tools/check_trace.py (the perfbench_trace_balance test).
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "measure.h"
#include "spans.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> values;
  for (int i = 1; i <= n; ++i) values.push_back(i);
  return values;
}

TEST(Percentile, IsNearestRank) {
  const std::vector<double> ten = one_to(10);
  EXPECT_EQ(percentile(ten, 50.0), 5.0);
  EXPECT_EQ(percentile(ten, 90.0), 9.0);
  EXPECT_EQ(percentile(ten, 91.0), 10.0);
  EXPECT_EQ(percentile(ten, 100.0), 10.0);
  EXPECT_EQ(percentile({7.0}, 50.0), 7.0);
  EXPECT_THROW(percentile(ten, 0.0), std::invalid_argument);
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
}

TEST(Percentile, CountsSamplesBeyondIt) {
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(99, 90.0), 9u);  // rank ceil(89.1) = 90
  EXPECT_EQ(samples_beyond(20, 50.0), 10u);
  EXPECT_EQ(median({3.0, 1.0, 2.0, 4.0}), 2.0);  // lower middle, as measured
}

TEST(Report, EndToEndIsOverEverySample) {
  // 200 samples valued 1..200, one every 2.5 ms: nearest-rank p50 and p90
  // over all of them, and 200 operations of 40 units in 0.5 s.
  Series series;
  for (int i = 1; i <= 200; ++i) series.add(i * 2'500'000, i);
  Report report;
  report.end_to_end(series, 40.0);
  ASSERT_TRUE(report.errors.empty());
  ASSERT_EQ(report.metrics.size(), 3u);
  EXPECT_EQ(report.metrics[0],
            (std::pair<std::string, double>{"latency_p50_us", 100.0}));
  EXPECT_EQ(report.metrics[1],
            (std::pair<std::string, double>{"latency_p90_us", 180.0}));
  EXPECT_EQ(report.metrics[2].first, "throughput_per_s");
  EXPECT_NEAR(report.metrics[2].second, 200 * 40.0 / 0.5, 1e-6);
}

TEST(Report, TooFewSamplesBeyondP90FailsTheRun) {
  Series series;
  for (int i = 1; i <= 99; ++i) series.add(i, i);
  Report report;
  report.end_to_end(series);
  EXPECT_EQ(report.errors.size(), 1u);
}

TEST(PoissonSchedule, SameSeedSameSchedule) {
  const auto a = poisson_schedule(7, 10000.0, 2.0, 500000);
  const auto b = poisson_schedule(7, 10000.0, 2.0, 500000);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_ns, b[i].due_ns);
    EXPECT_EQ(a[i].player, b[i].player);
    EXPECT_EQ(a[i].kw, b[i].kw);
  }
  const auto c = poisson_schedule(8, 10000.0, 2.0, 500000);
  EXPECT_TRUE(c.size() != a.size() || c[0].due_ns != a[0].due_ns);
}

TEST(PoissonSchedule, RespectsRateWindowAndRanges) {
  const auto schedule = poisson_schedule(3, 10000.0, 2.0, 1000);
  // 20000 expected arrivals; the count's standard deviation is ~141.
  EXPECT_NEAR(static_cast<double>(schedule.size()), 20000.0, 5 * 141.0);
  std::int64_t previous = -1;
  for (const Arrival& arrival : schedule) {
    EXPECT_GE(arrival.due_ns, previous);
    EXPECT_LT(arrival.due_ns, 2'000'000'000);
    EXPECT_LT(arrival.player, 1000u);
    EXPECT_GE(arrival.kw, 1.0);
    EXPECT_LT(arrival.kw, 120.0);
    previous = arrival.due_ns;
  }
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnly) {
  Lane lane("test");
  const auto root = lane.add("svc.request", 0, 100);
  lane.add("net.encode_frame", 10, 30, root);
  const auto recv = lane.add("svc.ServiceClient::recv", 40, 70, root);
  lane.add("svc.phase.solve", 45, 50, recv);
  const std::vector<std::int64_t> self = self_times_ns(lane.spans());
  EXPECT_EQ(self[0], 100 - 20 - 30);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30 - 5);
  EXPECT_EQ(self[3], 5);
}

TEST(Spans, SelfTimeClipsChildrenToTheirParent) {
  // Echoed phases that overrun their request, and overlap each other, cover
  // at most the request: its self time is what they leave, never negative.
  Lane lane("test");
  const auto request = lane.add("svc.request", 100, 200, -1, 7);
  lane.add("svc.phase.admit", 50, 120, request);   // starts before it
  lane.add("svc.phase.queue", 110, 150, request);  // overlaps admit
  lane.add("svc.phase.solve", 180, 400, request);  // ends after it
  const auto overrun = lane.add("svc.request", 0, 10);
  lane.add("svc.phase.solve", 0, 30, overrun);
  const std::vector<std::int64_t> self = self_times_ns(lane.spans());
  EXPECT_EQ(self[0], 100 - 50 - 20);  // [100,150) and [180,200) covered
  EXPECT_EQ(self[2], 40);             // a child keeps its own duration
  EXPECT_EQ(self[4], 0);
}

TEST(Spans, TracerAggregatesByName) {
  Tracer tracer;
  Lane& a = tracer.lane("a");
  Lane& b = tracer.lane("b");
  const auto root = a.add("svc.request", 0, 4000);
  a.add("svc.phase.queue", 1000, 3000, root);
  b.add("svc.request", 0, 1000);
  EXPECT_EQ(tracer.durations_us("svc.request"),
            (std::vector<double>{4.0, 1.0}));
  EXPECT_EQ(tracer.self_us("svc.request"), (std::vector<double>{2.0, 1.0}));
  EXPECT_EQ(tracer.span_count(), 3u);
}

TEST(Spans, ScopeOnANullLaneRecordsNothing) {
  Scope scope(nullptr, "core.Game::run");
  EXPECT_EQ(scope.index(), -1);
}

TEST(Spans, ChromeTraceSeparatesOverlappingRoots) {
  // Pipelined requests overlap in time on one lane; the writer must give
  // them separate tids so every tid's B/E pairs nest.
  Tracer tracer;
  Lane& lane = tracer.lane("generator");
  const auto first = lane.add("svc.request", 1000, 9000, -1, 1);
  lane.add("net.encode_frame", 1000, 2000, first);
  lane.add("svc.phase.queue", 3000, 5000, first);
  const auto second = lane.add("svc.request", 4000, 12000, -1, 2);
  lane.add("net.encode_frame", 4000, 4500, second);
  // A child that strays past its parent is clipped, not emitted unbalanced.
  lane.add("svc.phase.solve", 11000, 13000, second);
  lane.add("svc.request", 12000, 13000, -1, 3);
  {
    Scope scope(&lane, "obs.flight::record");
  }
  const std::string path = "perfbench_test_trace.json";
  tracer.write_chrome_json(path);

  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  ASSERT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  std::set<std::string> tids;
  for (std::size_t at = json.find("\"tid\":"); at != std::string::npos;
       at = json.find("\"tid\":", at + 1)) {
    tids.insert(json.substr(at + 6, json.find_first_of(",}", at) - at - 6));
  }
  EXPECT_EQ(tids.size(), 2u);  // two slots: request 2 overlaps request 1
  EXPECT_NE(json.find("\"trace_id\":\"2\""), std::string::npos);
}

}  // namespace
}  // namespace perfbench
