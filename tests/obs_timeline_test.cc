#include "obs/timeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "core/database.h"
#include "obs/blackbox.h"
#include "obs/metrics.h"

namespace hyrise_nv::obs {
namespace {

TimelineConfig SmallConfig(size_t capacity) {
  TimelineConfig config;
  config.interval_ms = 1000;  // ticks are driven manually via TickOnce
  config.capacity = capacity;
  config.counters = {"tl.test.commits"};
  config.gauges = {"tl.test.gauge"};
  config.histograms = {"tl.test.latency_ns"};
  return config;
}

TEST(TimelineRecorderTest, FirstTickPrimesBaseline) {
  MetricsRegistry::Instance().ResetAll();
  MetricsRegistry::Instance().GetCounter("tl.test.commits").Add(50);
  TimelineRecorder recorder(SmallConfig(8));
  recorder.TickOnce();
  const auto samples = recorder.Samples();
  ASSERT_EQ(samples.size(), 1u);
  // No previous point to diff against: deltas are zero even though the
  // counter was nonzero before the recorder existed.
  EXPECT_EQ(samples[0].counter_deltas[0], 0u);
  EXPECT_EQ(samples[0].elapsed_ms, 0u);
}

TEST(TimelineRecorderTest, CounterDeltasAndGaugeValuesPerTick) {
  MetricsRegistry::Instance().ResetAll();
  auto& commits = MetricsRegistry::Instance().GetCounter("tl.test.commits");
  auto& gauge = MetricsRegistry::Instance().GetGauge("tl.test.gauge");
  TimelineRecorder recorder(SmallConfig(8));
  recorder.TickOnce();
  commits.Add(7);
  gauge.Set(123);
  recorder.TickOnce();
  commits.Add(5);
  gauge.Set(-4);
  recorder.TickOnce();
  const auto samples = recorder.Samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[1].counter_deltas[0], 7u);
  EXPECT_EQ(samples[1].gauge_values[0], 123);
  EXPECT_EQ(samples[2].counter_deltas[0], 5u);
  EXPECT_EQ(samples[2].gauge_values[0], -4);
}

TEST(TimelineRecorderTest, RingWrapsKeepingNewestSamples) {
  MetricsRegistry::Instance().ResetAll();
  auto& commits = MetricsRegistry::Instance().GetCounter("tl.test.commits");
  TimelineRecorder recorder(SmallConfig(3));
  // 7 ticks into a 3-slot ring: tick i contributes delta i-1 (the first
  // tick is the baseline), so the survivors are the deltas 4, 5, 6.
  for (int i = 0; i < 7; ++i) {
    recorder.TickOnce();
    commits.Add(static_cast<uint64_t>(i + 1));
  }
  const auto samples = recorder.Samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].counter_deltas[0], 4u);
  EXPECT_EQ(samples[1].counter_deltas[0], 5u);
  EXPECT_EQ(samples[2].counter_deltas[0], 6u);
}

TEST(TimelineRecorderTest, IntervalHistogramPercentilesUseBucketDeltas) {
  MetricsRegistry::Instance().ResetAll();
  auto& hist =
      MetricsRegistry::Instance().GetHistogram("tl.test.latency_ns");
  TimelineRecorder recorder(SmallConfig(8));
  // Lifetime: many slow observations before the recorder starts. They
  // must not leak into later intervals.
  for (int i = 0; i < 1000; ++i) hist.Record(1'000'000);
  recorder.TickOnce();
  for (int i = 0; i < 100; ++i) hist.Record(1'000);
  recorder.TickOnce();
  const auto samples = recorder.Samples();
  ASSERT_EQ(samples.size(), 2u);
  const IntervalHistStat& stat = samples[1].hist_stats[0];
  EXPECT_EQ(stat.count, 100u);
  // The interval held only ~1us observations; a lifetime percentile
  // would report ~1ms because of the 1000 earlier slow points.
  EXPECT_LT(stat.p99, 100'000.0);
  EXPECT_GT(stat.p50, 0.0);
}

TEST(TimelineRecorderTest, PhaseAnnotationsSpanIntervalBoundaries) {
  MetricsRegistry::Instance().ResetAll();
  TimelineRecorder recorder(SmallConfig(8));
  recorder.TickOnce();  // baseline

  // Begin lands in interval 1; the phase stays active through interval 2
  // (no events there) and ends in interval 3.
  recorder.Annotate("merge", PhaseKind::kBegin, 42);
  recorder.TickOnce();
  recorder.TickOnce();
  recorder.Annotate("merge", PhaseKind::kEnd, 99);
  recorder.Annotate("fault", PhaseKind::kPoint, 7);
  recorder.TickOnce();
  recorder.TickOnce();

  const auto samples = recorder.Samples();
  ASSERT_EQ(samples.size(), 5u);
  EXPECT_TRUE(samples[0].active_phases.empty());

  ASSERT_EQ(samples[1].events.size(), 1u);
  EXPECT_EQ(samples[1].events[0].kind, PhaseKind::kBegin);
  EXPECT_EQ(samples[1].events[0].detail, 42u);
  ASSERT_EQ(samples[1].active_phases.size(), 1u);
  EXPECT_EQ(samples[1].active_phases[0], "merge");

  // Interval 2: no events, but the phase carries over as active.
  EXPECT_TRUE(samples[2].events.empty());
  ASSERT_EQ(samples[2].active_phases.size(), 1u);
  EXPECT_EQ(samples[2].active_phases[0], "merge");

  // Interval 3: the end event and the point; merge was active at the
  // interval start, so it still counts as active here. Events keep
  // arrival order, and the point does not enter the active set.
  ASSERT_EQ(samples[3].events.size(), 2u);
  EXPECT_EQ(samples[3].events[0].phase, "merge");
  EXPECT_EQ(samples[3].events[0].kind, PhaseKind::kEnd);
  EXPECT_EQ(samples[3].events[1].phase, "fault");
  EXPECT_EQ(samples[3].events[1].kind, PhaseKind::kPoint);
  ASSERT_EQ(samples[3].active_phases.size(), 1u);
  EXPECT_EQ(samples[3].active_phases[0], "merge");

  // Interval 4: the phase is over.
  EXPECT_TRUE(samples[4].active_phases.empty());
  EXPECT_TRUE(samples[4].events.empty());
}

TEST(TimelineRecorderTest, NestedBeginsNeedMatchingEnds) {
  MetricsRegistry::Instance().ResetAll();
  TimelineRecorder recorder(SmallConfig(8));
  recorder.TickOnce();
  recorder.Annotate("checkpoint", PhaseKind::kBegin);
  recorder.Annotate("checkpoint", PhaseKind::kBegin);
  recorder.Annotate("checkpoint", PhaseKind::kEnd);
  recorder.TickOnce();
  recorder.TickOnce();
  const auto samples = recorder.Samples();
  ASSERT_EQ(samples.size(), 3u);
  // Depth 2 - 1 = 1: still active after the first end.
  ASSERT_EQ(samples[2].active_phases.size(), 1u);
  EXPECT_EQ(samples[2].active_phases[0], "checkpoint");
}

TEST(TimelineRecorderTest, JsonEscapesHostileMetricNames) {
  MetricsRegistry::Instance().ResetAll();
  TimelineConfig config;
  config.interval_ms = 1000;
  config.capacity = 4;
  config.counters = {"weird\"name\\with\nnewline"};
  TimelineRecorder recorder(std::move(config));
  recorder.TickOnce();
  recorder.Annotate("phase\"quoted", PhaseKind::kPoint);
  recorder.TickOnce();

  auto parsed = common::JsonParse(recorder.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const common::JsonValue* samples = parsed->Find("samples");
  ASSERT_NE(samples, nullptr);
  ASSERT_EQ(samples->size(), 2u);
  // The hostile name survives the escape/parse round trip intact.
  const common::JsonValue* counters = samples->at(0).Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->Find("weird\"name\\with\nnewline"), nullptr);
  const common::JsonValue* events = samples->at(1).Find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ(events->at(0).Get("phase").AsString(), "phase\"quoted");
}

TEST(TimelineRecorderTest, JsonShapeMatchesContract) {
  MetricsRegistry::Instance().ResetAll();
  auto& commits = MetricsRegistry::Instance().GetCounter("tl.test.commits");
  TimelineRecorder recorder(SmallConfig(8));
  recorder.TickOnce();
  commits.Add(11);
  recorder.Annotate("merge", PhaseKind::kBegin);
  recorder.TickOnce();

  auto parsed = common::JsonParse(recorder.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Get("interval_ms").AsInt(), 1000);
  EXPECT_EQ(parsed->Get("capacity").AsInt(), 8);
  const common::JsonValue& sample = parsed->Get("samples").at(1);
  EXPECT_EQ(sample.Get("counters").Get("tl.test.commits").AsInt(), 11);
  const common::JsonValue* hist =
      sample.Get("histograms").Find("tl.test.latency_ns");
  ASSERT_NE(hist, nullptr);
  EXPECT_NE(hist->Find("p99"), nullptr);
  EXPECT_EQ(sample.Get("active_phases").at(0).AsString(), "merge");
  EXPECT_EQ(sample.Get("events").at(0).Get("kind").AsString(), "begin");
}

TEST(TimelineRecorderTest, CsvHasHeaderAndOneRowPerSample) {
  MetricsRegistry::Instance().ResetAll();
  TimelineRecorder recorder(SmallConfig(4));
  recorder.TickOnce();
  recorder.TickOnce();
  const std::string csv = recorder.ToCsv();
  size_t lines = 0;
  for (char c : csv) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 3u) << csv;  // header + 2 samples
  EXPECT_NE(csv.find("tl.test.commits"), std::string::npos);
  EXPECT_NE(csv.find("active_phases"), std::string::npos);
}

// Each background tick flushes the flight recorder: the open event,
// recorded far short of the recorder's own flush window and before the
// timeline thread starts, survives a power failure under the shadow
// crash model once a tick has passed.
TEST(TimelineRecorderTest, BackgroundTickFlushesFlightRecorder) {
#if !HYRISE_NV_METRICS_ENABLED
  GTEST_SKIP() << "flight-recorder writes compile out in this build";
#endif
  core::DatabaseOptions options;
  options.mode = core::DurabilityMode::kNvm;
  options.region_size = 16 << 20;
  options.tracking = nvm::TrackingMode::kShadow;
  options.enable_timeline = true;
  options.timeline_interval_ms = 5;
  auto db = std::move(core::Database::Create(options)).ValueUnsafe();
  // A tick captures, then flushes: by the second sample the first flush
  // is done.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (db->timeline()->Samples().size() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  db->timeline()->Stop();
  ASSERT_TRUE(db->heap().region().SimulateCrash().ok());

  const BlackboxDecodeResult result =
      DecodeBlackbox(db->heap().region().base(), db->heap().region().size());
  ASSERT_TRUE(result.header_valid);
  const bool survived = std::any_of(
      result.events.begin(), result.events.end(),
      [](const BlackboxDecodedEvent& ev) {
        return ev.type == static_cast<uint16_t>(BlackboxEventType::kOpen);
      });
  EXPECT_TRUE(survived) << "the tick did not flush the recorder";
}

TEST(PhaseSpanTest, ReconstructsWindowsFromDecodedEvents) {
  BlackboxDecodeResult decoded;
  decoded.ns_per_tick = 1.0;  // ticks read directly as nanoseconds
  decoded.base_ticks = 0;
  // Synthetic decoded stream: a merge window, a fault point, and an open
  // checkpoint (crash mid-phase).
  auto event = [](uint16_t type, uint64_t t_ns, uint64_t a) {
    BlackboxDecodedEvent ev;
    ev.type = type;
    ev.ticks = t_ns;
    ev.a = a;
    ev.seqno = t_ns;
    return ev;
  };
  decoded.events = {
      event(static_cast<uint16_t>(BlackboxEventType::kMergeStart), 1'000'000,
            1),
      event(static_cast<uint16_t>(BlackboxEventType::kFaultFire), 2'000'000,
            3),
      event(static_cast<uint16_t>(BlackboxEventType::kMergeEnd), 5'000'000,
            1),
      event(static_cast<uint16_t>(BlackboxEventType::kCheckpointStart),
            8'000'000, 0),
  };
  const std::vector<PhaseSpan> spans = PhaseSpansFromBlackbox(decoded);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].phase, "merge");
  EXPECT_FALSE(spans[0].open);
  EXPECT_LT(spans[0].start_ms, spans[0].end_ms);
  EXPECT_EQ(spans[1].phase, "fault");
  EXPECT_TRUE(spans[1].point);
  EXPECT_EQ(spans[2].phase, "checkpoint");
  EXPECT_TRUE(spans[2].open);

  auto parsed = common::JsonParse(PhaseSpansJson(spans));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Get("spans").size(), 2u);
  EXPECT_EQ(parsed->Get("points").size(), 1u);
}

}  // namespace
}  // namespace hyrise_nv::obs
