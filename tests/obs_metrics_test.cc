#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace hyrise_nv::obs {
namespace {

TEST(CounterTest, SingleThreadedAddAndReset) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Inc();
  counter.Add(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(CounterTest, StoreOverwritesShardedTotal) {
  Counter counter;
  counter.Add(10);
  counter.Store(7);
  EXPECT_EQ(counter.Value(), 7u);
}

TEST(CounterTest, NoLostIncrementsUnderEightWriterThreads) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Inc();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAddValue) {
  Gauge gauge;
  gauge.Set(100);
  gauge.Add(-30);
  EXPECT_EQ(gauge.Value(), 70);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0);
}

TEST(HistogramTest, BucketBoundsAreConsistent) {
  // Every value must land in a bucket whose [lower, next-lower) range
  // contains it.
  for (uint64_t value :
       {uint64_t{0}, uint64_t{1}, uint64_t{7}, uint64_t{8}, uint64_t{9},
        uint64_t{100}, uint64_t{1000}, uint64_t{123456789},
        uint64_t{1} << 40, UINT64_MAX}) {
    const size_t index = Histogram::BucketIndex(value);
    ASSERT_LT(index, Histogram::kNumBuckets) << "value " << value;
    EXPECT_LE(Histogram::BucketLowerBound(index), value)
        << "value " << value;
    // Past-the-end bounds saturate at UINT64_MAX (2^64 is not
    // representable), so the check is inclusive for the very top value.
    EXPECT_GE(Histogram::BucketLowerBound(index + 1), value)
        << "value " << value;
    if (value != UINT64_MAX) {
      EXPECT_GT(Histogram::BucketLowerBound(index + 1), value)
          << "value " << value;
    }
  }
}

TEST(HistogramTest, SmallValuesAreExact) {
  // The linear region gives every value below 2^(kSubBits+1) its own
  // bucket.
  for (uint64_t v = 0; v < (uint64_t{1} << (Histogram::kSubBits + 1));
       ++v) {
    EXPECT_EQ(Histogram::BucketLowerBound(Histogram::BucketIndex(v)), v);
  }
}

TEST(HistogramTest, RecordsCountSumMinMax) {
  Histogram histogram;
  histogram.Record(10);
  histogram.Record(20);
  histogram.Record(30);
  const HistogramData data = histogram.Snapshot();
  EXPECT_EQ(data.count, 3u);
  EXPECT_EQ(data.sum, 60u);
  EXPECT_EQ(data.min, 10u);
  EXPECT_EQ(data.max, 30u);
  EXPECT_DOUBLE_EQ(data.Mean(), 20.0);
}

TEST(HistogramTest, PercentilesWithinBucketError) {
  Histogram histogram;
  // 100 samples 1..100: p50 ~ 50, p99 ~ 100. Log-scale buckets with 4
  // sub-buckets per octave bound relative error by 25%.
  for (uint64_t v = 1; v <= 100; ++v) histogram.Record(v);
  const HistogramData data = histogram.Snapshot();
  EXPECT_NEAR(data.Percentile(50), 50.0, 50.0 * 0.25);
  EXPECT_NEAR(data.Percentile(99), 100.0, 100.0 * 0.25);
  EXPECT_DOUBLE_EQ(data.Percentile(0), static_cast<double>(data.min));
}

TEST(HistogramTest, NoLostRecordsUnderEightWriterThreads) {
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        histogram.Record(static_cast<uint64_t>(t) * 1000 + (i & 255));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const HistogramData data = histogram.Snapshot();
  EXPECT_EQ(data.count, kThreads * kPerThread);
}

TEST(HistogramTest, SnapshotWhileWritingIsSafe) {
  // TSan coverage: readers snapshot while writers record. Counts must
  // only grow between snapshots (relaxed atomics never tear or go back).
  Histogram histogram;
  Counter counter;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      uint64_t v = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        histogram.Record(v = (v * 2862933555777941757ull + 3037000493ull) %
                             100000);
        counter.Inc();
      }
    });
  }
  uint64_t last_count = 0;
  for (int i = 0; i < 200; ++i) {
    const HistogramData data = histogram.Snapshot();
    EXPECT_GE(data.count, last_count);
    last_count = data.count;
    (void)counter.Value();
  }
  stop.store(true);
  for (auto& writer : writers) writer.join();
  EXPECT_EQ(histogram.Snapshot().count, counter.Value());
}

TEST(FastClockTest, TicksConvertToPlausibleNanos) {
  const uint64_t start = FastClock::NowTicks();
  // Busy-wait a little so the delta is non-trivial.
  volatile uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  const uint64_t end = FastClock::NowTicks();
  const uint64_t nanos =
      FastClock::TicksToNanos(static_cast<int64_t>(end - start));
  EXPECT_GT(nanos, 0u);
  EXPECT_LT(nanos, uint64_t{10} * 1000 * 1000 * 1000);  // < 10 s
  // Negative deltas clamp to zero instead of wrapping.
  EXPECT_EQ(FastClock::TicksToNanos(-1000), 0u);
}

TEST(RegistryTest, SameNameYieldsSameMetric) {
  auto& registry = MetricsRegistry::Instance();
  Counter& a = registry.GetCounter("test.same.count");
  Counter& b = registry.GetCounter("test.same.count");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = registry.GetHistogram("test.same.latency_ns");
  Histogram& h2 = registry.GetHistogram("test.same.latency_ns");
  EXPECT_EQ(&h1, &h2);
}

TEST(RegistryTest, EngineMetricsArePreRegistered) {
  // The export surfaces promise these names exist even before any
  // workload ran (dbinspect on a fresh process).
  const MetricsSnapshot snapshot = MetricsRegistry::Instance().Snapshot();
  EXPECT_NE(snapshot.FindHistogram("nvm.persist.latency_ns"), nullptr);
  EXPECT_NE(snapshot.FindHistogram("wal.fsync.latency_ns"), nullptr);
  EXPECT_NE(snapshot.FindHistogram("txn.commit.latency_ns"), nullptr);
  EXPECT_NE(snapshot.FindCounter("nvm.persist.count"), nullptr);
  EXPECT_NE(snapshot.FindCounter("wal.fsync.count"), nullptr);
}

TEST(RegistryTest, SnapshotSerializations) {
  auto& registry = MetricsRegistry::Instance();
  registry.GetCounter("test.serialize.count").Add(5);
  registry.GetHistogram("test.serialize.latency_ns").Record(1234);
  const MetricsSnapshot snapshot = registry.Snapshot();

  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"test.serialize.count\":5"), std::string::npos);
  EXPECT_NE(json.find("\"test.serialize.latency_ns\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');

  const std::string prom = snapshot.ToPrometheusText();
  EXPECT_NE(prom.find("test_serialize_count 5"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE test_serialize_count counter"),
            std::string::npos);
  EXPECT_NE(prom.find("test_serialize_latency_ns_count"),
            std::string::npos);

  const std::string text = snapshot.ToText();
  EXPECT_NE(text.find("test.serialize.count"), std::string::npos);
}

TEST(FastClockTest, TicksAreSteadyClockNanos) {
  // The flight recorder stamps events with ticks and records 1 ns per
  // tick, so a tick must be a steady_clock nanosecond.
  const auto steady_nanos = [] {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };
  const uint64_t before = steady_nanos();
  const uint64_t ticks = FastClock::NowTicks();
  const uint64_t after = steady_nanos();
  EXPECT_LE(before, ticks);
  EXPECT_LE(ticks, after);
  EXPECT_EQ(FastClock::TicksToNanos(12345), 12345u);
}

TEST(PrometheusTest, HelpPrecedesTypeForEveryMetric) {
  auto& registry = MetricsRegistry::Instance();
  registry.GetCounter("test.prom.help.count").Inc();
  registry.GetHistogram("test.prom.help.latency_ns").Record(1);
  const std::string prom =
      registry.Snapshot().ToPrometheusText();
  size_t pos = 0;
  int metrics_seen = 0;
  while ((pos = prom.find("# TYPE ", pos)) != std::string::npos) {
    const size_t name_start = pos + 7;
    const size_t name_end = prom.find(' ', name_start);
    ASSERT_NE(name_end, std::string::npos);
    const std::string name = prom.substr(name_start, name_end - name_start);
    const std::string help_line = "# HELP " + name + " ";
    const size_t help_pos = prom.find(help_line);
    EXPECT_NE(help_pos, std::string::npos) << "no HELP for " << name;
    EXPECT_LT(help_pos, pos) << "HELP must precede TYPE for " << name;
    ++metrics_seen;
    pos = name_end;
  }
  EXPECT_GE(metrics_seen, 2);
}

TEST(PrometheusTest, LabelValuesAreEscaped) {
  EXPECT_EQ(PrometheusEscapeLabel("plain"), "plain");
  EXPECT_EQ(PrometheusEscapeLabel("a\\b"), "a\\\\b");
  EXPECT_EQ(PrometheusEscapeLabel("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(PrometheusEscapeLabel("two\nlines"), "two\\nlines");
  EXPECT_EQ(PrometheusEscapeLabel("\\\"\n"), "\\\\\\\"\\n");
}

TEST(PrometheusTest, HistogramBucketsAreCumulativeAndEndAtInf) {
  auto& registry = MetricsRegistry::Instance();
  Histogram& histogram =
      registry.GetHistogram("test.prom.buckets.latency_ns");
  histogram.Reset();
  for (uint64_t v : {1u, 5u, 5u, 80u, 3000u}) histogram.Record(v);
  const std::string prom = registry.Snapshot().ToPrometheusText();

  // Collect this histogram's bucket lines in emission order.
  const std::string bucket_prefix =
      "test_prom_buckets_latency_ns_bucket{le=\"";
  std::vector<uint64_t> cumulative;
  uint64_t inf_value = 0;
  bool saw_inf = false;
  size_t pos = 0;
  while ((pos = prom.find(bucket_prefix, pos)) != std::string::npos) {
    const size_t le_start = pos + bucket_prefix.size();
    const size_t le_end = prom.find("\"} ", le_start);
    ASSERT_NE(le_end, std::string::npos);
    const std::string le = prom.substr(le_start, le_end - le_start);
    const size_t value_start = le_end + 3;
    const uint64_t value = std::stoull(prom.substr(value_start));
    if (le == "+Inf") {
      saw_inf = true;
      inf_value = value;
    } else {
      EXPECT_FALSE(saw_inf) << "+Inf must be the last bucket";
      cumulative.push_back(value);
    }
    pos = value_start;
  }
  ASSERT_TRUE(saw_inf);
  ASSERT_FALSE(cumulative.empty());
  for (size_t i = 1; i < cumulative.size(); ++i) {
    EXPECT_GE(cumulative[i], cumulative[i - 1])
        << "bucket counts must be non-decreasing";
  }
  EXPECT_GE(inf_value, cumulative.back());
  EXPECT_EQ(inf_value, 5u) << "+Inf bucket must equal the sample count";

  // _count agrees with the +Inf bucket, per the exposition format.
  const size_t count_pos =
      prom.find("test_prom_buckets_latency_ns_count ");
  ASSERT_NE(count_pos, std::string::npos);
  EXPECT_EQ(std::stoull(prom.substr(
                count_pos + std::string("test_prom_buckets_latency_ns_count ")
                                .size())),
            inf_value);
}

TEST(HistogramTest, InterpolatedPercentileExactForWidthOneBuckets) {
  // Values 0..7 land in width-1 buckets (the first sub-bucket range), so
  // rank interpolation is exact: Percentile(q) is the q-th order
  // statistic with no bucket error at all.
  Histogram histogram;
  for (uint64_t v = 0; v <= 7; ++v) histogram.Record(v);
  const HistogramData data = histogram.Snapshot();
  EXPECT_DOUBLE_EQ(data.Percentile(0), 0.0);
  EXPECT_NEAR(data.Percentile(50), 3.5, 0.51);
  EXPECT_NEAR(data.Percentile(87.5), 6.5, 0.51);
  EXPECT_DOUBLE_EQ(data.Percentile(100), 7.0);
}

TEST(HistogramTest, PercentilesAreMonotonicAndClamped) {
  Histogram histogram;
  for (uint64_t v = 1; v <= 10'000; v += 7) histogram.Record(v);
  const HistogramData data = histogram.Snapshot();
  const double p50 = data.Percentile(50);
  const double p95 = data.Percentile(95);
  const double p99 = data.Percentile(99);
  const double p999 = data.Percentile(99.9);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, p999);
  EXPECT_LE(p999, static_cast<double>(data.max));
  EXPECT_GE(p50, static_cast<double>(data.min));
  // Interpolation keeps the estimate inside the log-bucket error bound.
  EXPECT_NEAR(p50, 5'000.0, 5'000.0 * 0.25);
}

TEST(HistogramTest, SnapshotPercentileMatchesDataPercentile) {
  // HistogramSnapshot::Percentile reconstructs from the serialized
  // cumulative buckets; it must agree with the full-data estimator to
  // within one value unit (the cumulative form stores inclusive upper
  // bounds, so the bucket edges differ by at most 1).
  auto& registry = MetricsRegistry::Instance();
  Histogram& histogram = registry.GetHistogram("test.pctl.latency_ns");
  for (uint64_t v = 1; v <= 5'000; v += 3) histogram.Record(v);
  const HistogramData data = histogram.Snapshot();
  const MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSnapshot* serialized =
      snapshot.FindHistogram("test.pctl.latency_ns");
  ASSERT_NE(serialized, nullptr);
  for (const double q : {10.0, 50.0, 90.0, 99.0, 99.9}) {
    EXPECT_NEAR(serialized->Percentile(q), data.Percentile(q), 1.0)
        << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(serialized->p999, data.Percentile(99.9));
}

TEST(HistogramTest, SnapshotJsonCarriesP999) {
  auto& registry = MetricsRegistry::Instance();
  registry.GetHistogram("test.p999.latency_ns").Record(42);
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"p999\":"), std::string::npos);
}

TEST(RegistryTest, ResetAllZeroesValuesButKeepsRegistrations) {
  auto& registry = MetricsRegistry::Instance();
  registry.GetCounter("test.reset.count").Add(3);
  registry.GetHistogram("test.reset.latency_ns").Record(7);
  registry.ResetAll();
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.CounterValue("test.reset.count"), 0u);
  const HistogramSnapshot* histogram =
      snapshot.FindHistogram("test.reset.latency_ns");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->count, 0u);
}

}  // namespace
}  // namespace hyrise_nv::obs
