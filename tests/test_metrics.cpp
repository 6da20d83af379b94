// dn::obs observability tests (util/metrics.*, util/trace.*): sharded
// counters and histograms under concurrency, registry JSON shape, and
// trace-span export.
#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/json.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace dn::obs {
namespace {

// Every test toggles the global switches; restore the defaults so test
// order never matters.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_metrics_enabled(true);
    metrics().reset_all();
  }
  void TearDown() override {
    metrics().reset_all();
    set_metrics_enabled(false);
    set_tracing_enabled(false);
    TraceRecorder::instance().clear();
  }
};

TEST_F(ObsTest, CounterCountsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, DisabledCounterRecordsNothing) {
  set_metrics_enabled(false);
  Counter c;
  c.add(100);
  EXPECT_EQ(c.value(), 0u);
  set_metrics_enabled(true);
  c.add(1);
  EXPECT_EQ(c.value(), 1u);
}

TEST_F(ObsTest, CounterIsExactUnderConcurrency) {
  // 8 threads x 20000 increments through the sharded hot path must lose
  // nothing: the aggregate is exact, not approximate.
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  ThreadPool pool(kThreads);
  pool.parallel_for(kThreads, [&](std::size_t) {
    for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
  });
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST_F(ObsTest, GaugeLastWriterWins) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  EXPECT_EQ(g.value(), 3.5);
  g.set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST_F(ObsTest, HistogramExactAggregatesAndBoundedPercentiles) {
  Histogram h;
  const double samples[] = {1e-9, 2e-9, 4e-9, 8e-9, 1e-6};
  double sum = 0.0;
  for (const double s : samples) {
    h.record(s);
    sum += s;
  }
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 5u);
  EXPECT_NEAR(snap.sum, sum, 1e-18);
  EXPECT_EQ(snap.min, 1e-9);  // min/max are exact, not bucketized.
  EXPECT_EQ(snap.max, 1e-6);
  EXPECT_NEAR(snap.mean(), sum / 5.0, 1e-18);
  // Percentiles interpolate within geometric buckets (<= ~15% relative
  // width) and clamp to the observed extremes.
  EXPECT_EQ(snap.percentile(0), snap.min);
  EXPECT_EQ(snap.percentile(100), snap.max);
  const double p50 = snap.percentile(50);
  EXPECT_GE(p50, 2e-9 * 0.8);
  EXPECT_LE(p50, 4e-9 * 1.2);
  for (double p = 0; p <= 100; p += 10) {
    EXPECT_GE(snap.percentile(p), snap.min);
    EXPECT_LE(snap.percentile(p), snap.max);
  }
}

TEST_F(ObsTest, HistogramEmptySnapshotIsAllZeros) {
  Histogram h;
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0.0);
  EXPECT_EQ(snap.min, 0.0);
  EXPECT_EQ(snap.max, 0.0);
  EXPECT_EQ(snap.mean(), 0.0);
  EXPECT_EQ(snap.percentile(50), 0.0);
}

TEST_F(ObsTest, HistogramBucketFloorsAreMonotonic) {
  for (int i = 1; i < Histogram::kBuckets; ++i)
    EXPECT_GT(Histogram::bucket_floor(i), Histogram::bucket_floor(i - 1))
        << "bucket " << i;
}

TEST_F(ObsTest, HistogramIsExactUnderConcurrency) {
  // Count/sum/min/max are exact even with all threads hammering the same
  // histogram; only percentile placement is approximate.
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  ThreadPool pool(kThreads);
  pool.parallel_for(kThreads, [&](std::size_t t) {
    for (int i = 1; i <= kPerThread; ++i)
      h.record(1e-6 * static_cast<double>(t * kPerThread + i));
  });
  const Histogram::Snapshot snap = h.snapshot();
  constexpr std::uint64_t n = kThreads * kPerThread;
  EXPECT_EQ(snap.count, n);
  EXPECT_EQ(snap.min, 1e-6);
  EXPECT_EQ(snap.max, 1e-6 * static_cast<double>(n));
  // Gauss sum, recorded as doubles; allow FP accumulation slack.
  const double expect_sum = 1e-6 * 0.5 * static_cast<double>(n) *
                            static_cast<double>(n + 1);
  EXPECT_NEAR(snap.sum, expect_sum, expect_sum * 1e-9);
  const double p50 = snap.percentile(50);
  EXPECT_GT(p50, 0.3 * snap.max);
  EXPECT_LT(p50, 0.8 * snap.max);
}

TEST_F(ObsTest, ScopedLatencyRecordsOneSample) {
  Histogram h;
  { ScopedLatency lat(h); }
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_GE(snap.min, 0.0);
  EXPECT_LT(snap.max, 60.0);  // An empty scope does not take a minute.
}

TEST_F(ObsTest, RegistryHandsOutStableReferences) {
  Counter& a = metrics().counter("test.registry.counter");
  Counter& b = metrics().counter("test.registry.counter");
  EXPECT_EQ(&a, &b);
  Histogram& ha = metrics().histogram("test.registry.hist");
  Histogram& hb = metrics().histogram("test.registry.hist");
  EXPECT_EQ(&ha, &hb);
}

TEST_F(ObsTest, RegistryJsonHasTheDocumentedShape) {
  metrics().counter("test.json.hits").add(3);
  metrics().gauge("test.json.depth").set(2.0);
  metrics().gauge("test.json.nan").set(std::nan(""));
  metrics().histogram("test.json.lat").record(0.5);
  const std::string json = metrics().to_json();
  for (const char* key :
       {"\"counters\":", "\"gauges\":", "\"histograms\":",
        "\"test.json.hits\":3", "\"test.json.depth\":2",
        "\"test.json.nan\":null",
        "\"test.json.lat\":{\"count\":1", "\"sum\":", "\"min\":", "\"max\":",
        "\"mean\":", "\"p50\":", "\"p90\":", "\"p99\":"})
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST_F(ObsTest, ResetAllZeroesButKeepsRegistrations) {
  Counter& c = metrics().counter("test.reset.c");
  c.add(5);
  metrics().reset_all();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&metrics().counter("test.reset.c"), &c);
}

TEST_F(ObsTest, SummaryMentionsRecordedMetrics) {
  metrics().counter("test.summary.hits").add(7);
  std::ostringstream os;
  metrics().write_summary(os);
  EXPECT_NE(os.str().find("test.summary.hits"), std::string::npos);
  EXPECT_NE(os.str().find("7"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

TEST_F(ObsTest, DisabledSpanRecordsNothing) {
  const std::size_t before = TraceRecorder::instance().event_count();
  { TraceSpan span("test.noop", "test"); }
  EXPECT_EQ(TraceRecorder::instance().event_count(), before);
}

TEST_F(ObsTest, SpansExportChromeTraceJson) {
  set_tracing_enabled(true);
  {
    TraceSpan outer("test.outer", "test");
    TraceSpan inner("test.inner", "test", "net", "n<1>");
  }
  set_tracing_enabled(false);
  EXPECT_EQ(TraceRecorder::instance().event_count(), 2u);
  const std::string json = TraceRecorder::instance().to_json();
  for (const char* key :
       {"\"traceEvents\":[", "\"displayTimeUnit\":\"ms\"", "\"ph\":\"X\"",
        "\"name\":\"test.outer\"", "\"name\":\"test.inner\"",
        "\"cat\":\"test\"", "\"ts\":", "\"dur\":", "\"pid\":", "\"tid\":",
        "\"args\":{\"net\":\"n<1>\"}"})
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
}

TEST_F(ObsTest, ConcurrentSpansAllLand) {
  set_tracing_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  ThreadPool pool(kThreads);
  pool.parallel_for(kThreads, [&](std::size_t) {
    for (int i = 0; i < kPerThread; ++i) TraceSpan span("test.many", "test");
  });
  set_tracing_enabled(false);
  EXPECT_EQ(TraceRecorder::instance().event_count(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  TraceRecorder::instance().clear();
  EXPECT_EQ(TraceRecorder::instance().event_count(), 0u);
}

// Span args and every other string go through the one json writer.
std::string json_quoted(std::string_view s) {
  std::ostringstream os;
  json::write_string(os, s);
  return os.str();
}

TEST_F(ObsTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_quoted("plain"), "\"plain\"");
  EXPECT_EQ(json_quoted("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_quoted("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
  // A control character is escaped, never dropped.
  EXPECT_EQ(json_quoted(std::string("x\x01y\x1f")), "\"x\\u0001y\\u001f\"");
}

}  // namespace
}  // namespace dn::obs
