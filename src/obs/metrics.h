#ifndef HYRISE_NV_OBS_METRICS_H_
#define HYRISE_NV_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/macros.h"

/// Compile-time guard for hot-path instrumentation. Defaults to on; a
/// build with -DHYRISE_NV_DISABLE_METRICS=ON (CMake option) defines it
/// to 0 and every instrumentation site compiles to nothing. The registry
/// and snapshot types stay available either way so export surfaces link.
#ifndef HYRISE_NV_METRICS_ENABLED
#define HYRISE_NV_METRICS_ENABLED 1
#endif

namespace hyrise_nv::obs {

/// Monotonic time source for hot-path latency measurement. A tick is one
/// steady_clock nanosecond: a read is one vDSO clock_gettime (32-41 ns on
/// a 4-core Xeon container) and needs no calibration. rdtsc reads in
/// 18-23 ns there, but its rate must be measured in every process, and a
/// restarted server would pay that inside its open.
struct FastClock {
  static uint64_t NowTicks();
  /// Converts a tick *delta* to nanoseconds. Negative deltas (reads
  /// compared out of order) clamp to zero.
  static uint64_t TicksToNanos(int64_t tick_delta);
};

namespace internal {
/// Dense per-thread index used to spread threads across counter shards.
size_t ThreadShardIndex();
}  // namespace internal

/// Monotonic counter, sharded across cache lines so concurrent writers
/// on different threads do not bounce a single line. Add is one relaxed
/// fetch_add on the caller's shard; Value sums the shards (approximate
/// while writers are active, exact once they stop).
class Counter {
 public:
  static constexpr size_t kShards = 8;

  Counter() = default;
  HYRISE_NV_DISALLOW_COPY_AND_MOVE(Counter);

  void Add(uint64_t n) {
    shards_[internal::ThreadShardIndex() & (kShards - 1)].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  void Inc() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  /// Overwrites the total. Only for counters that mirror an externally
  /// maintained cumulative value (e.g. NvmStats) at snapshot time — a
  /// Store racing concurrent Add calls can lose those increments.
  void Store(uint64_t total) {
    shards_[0].value.store(total, std::memory_order_relaxed);
    for (size_t i = 1; i < kShards; ++i) {
      shards_[i].value.store(0, std::memory_order_relaxed);
    }
  }

  void Reset() { Store(0); }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[kShards];
};

/// Point-in-time signed value (bytes in use, read-only flag, ...).
class Gauge {
 public:
  Gauge() = default;
  HYRISE_NV_DISALLOW_COPY_AND_MOVE(Gauge);

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Immutable view of a histogram used for percentile math and export.
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  std::vector<uint64_t> buckets;  // per-bucket counts, kNumBuckets long

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Value at percentile `p` in [0,100]: linearly interpolated by rank
  /// within the log-scale bucket holding that rank, clamped to
  /// [min,max]. Exact for buckets of width 1; within one bucket width
  /// (relative error <= 25%) everywhere else.
  double Percentile(double p) const;
};

/// Fixed-bucket log-scale histogram: 4 sub-buckets per power of two,
/// covering the full uint64 range (relative bucket error <= 25%, which is
/// plenty for latency tails). Record is one relaxed fetch_add on the
/// bucket plus sum/min/max updates — lock-free, snapshot-while-writing
/// safe, cheap enough for the persist path.
class Histogram {
 public:
  static constexpr size_t kSubBits = 2;  // 2^2 sub-buckets per octave
  static constexpr size_t kNumBuckets =
      (1u << (kSubBits + 1)) + (64 - kSubBits - 1) * (1u << kSubBits);

  Histogram() = default;
  HYRISE_NV_DISALLOW_COPY_AND_MOVE(Histogram);

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
  }

  HistogramData Snapshot() const;
  void Reset();

  /// Bucket math, exposed for tests: BucketLowerBound(BucketIndex(v)) <=
  /// v < BucketLowerBound(BucketIndex(v) + 1).
  static size_t BucketIndex(uint64_t value);
  static uint64_t BucketLowerBound(size_t index);

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
};

// --- Snapshots -----------------------------------------------------------

struct CounterSnapshot {
  std::string name;
  uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  int64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t max = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
  double p999 = 0;
  /// Non-empty buckets as (inclusive upper bound, cumulative count) —
  /// what a Prometheus classic histogram serializes.
  std::vector<std::pair<uint64_t, uint64_t>> cumulative_buckets;

  /// Rank-interpolated percentile reconstructed from cumulative_buckets
  /// (same estimator as HistogramData::Percentile, usable by consumers
  /// that only hold the serialized snapshot).
  double Percentile(double p) const;
};

/// A consistent-enough point-in-time copy of every registered metric.
/// Taken while writers are active it may smear concurrent increments,
/// but never tears a value.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  const CounterSnapshot* FindCounter(std::string_view name) const;
  const GaugeSnapshot* FindGauge(std::string_view name) const;
  const HistogramSnapshot* FindHistogram(std::string_view name) const;
  uint64_t CounterValue(std::string_view name) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}
  std::string ToJson() const;
  /// Prometheus text exposition ('.' in names becomes '_'), with # HELP
  /// and # TYPE lines per metric family.
  std::string ToPrometheusText() const;
  /// Human-readable table for CLI output.
  std::string ToText() const;
};

/// Escapes a Prometheus label value: backslash, double quote, and newline
/// get backslash escapes per the text exposition format.
std::string PrometheusEscapeLabel(std::string_view value);

/// Process-wide registry of named metrics. Names follow
/// `subsystem.metric.unit` (e.g. nvm.persist.latency_ns). Lookup takes a
/// mutex and is meant to run once per site (cache the reference, usually
/// as a function-local static); the returned references stay valid for
/// the life of the process.
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();
  HYRISE_NV_DISALLOW_COPY_AND_MOVE(MetricsRegistry);

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (registrations survive). Benchmarks
  /// call this between configurations; racing writers only smear the
  /// first samples after the reset.
  void ResetAll();

 private:
  MetricsRegistry();

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace hyrise_nv::obs

#endif  // HYRISE_NV_OBS_METRICS_H_
