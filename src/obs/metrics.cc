#include "obs/metrics.h"

#include <chrono>
#include <cmath>
#include <cstdio>

#include "common/json.h"

namespace hyrise_nv::obs {

namespace {

uint64_t SteadyNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

using common::AppendJsonEscaped;

std::string PrometheusName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

/// Description for the # HELP line. Known engine metrics get a real
/// sentence; everything else gets a generic one derived from the name.
std::string MetricHelp(std::string_view name) {
  struct Entry {
    const char* name;
    const char* help;
  };
  static constexpr Entry kHelp[] = {
      {"nvm.persist.count", "Flush+fence persist barriers issued"},
      {"nvm.persist.latency_ns", "Latency of persist barriers"},
      {"nvm.fence.count", "Store fences issued"},
      {"nvm.flush.lines", "Cache lines flushed to the NVM region"},
      {"nvm.flush.bytes", "Bytes covered by cache-line flushes"},
      {"wal.fsync.count", "WAL device syncs"},
      {"wal.fsync.latency_ns", "Latency of WAL device syncs"},
      {"wal.io.retries", "WAL I/O operations retried after a fault"},
      {"wal.degraded.flips", "Transitions into degraded (read-only) WAL mode"},
      {"wal.batch.bytes", "Bytes per group-commit batch"},
      {"txn.begin.count", "Transactions begun"},
      {"txn.commit.count", "Transactions committed"},
      {"txn.abort.count", "Transactions aborted"},
      {"txn.commit.latency_ns", "Commit critical-path latency"},
      {"merge.count", "Delta-to-main merges completed"},
      {"merge.duration_ns", "Duration of delta-to-main merges"},
      {"alloc.alloc.count", "Persistent heap allocations"},
      {"alloc.free.count", "Persistent heap frees"},
      {"alloc.heap_used.bytes", "Bytes between heap begin and heap top"},
      {"fault.fires.count", "Injected faults fired"},
      {"db.open.count", "Database opens (create, open, restart)"},
      {"blackbox.resets.count",
       "Flight-recorder headers quarantined at attach"},
  };
  for (const auto& entry : kHelp) {
    if (name == entry.name) return entry.help;
  }
  return "Engine metric " + std::string(name);
}

void AppendDouble(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

}  // namespace

uint64_t FastClock::NowTicks() { return SteadyNowNanos(); }

uint64_t FastClock::TicksToNanos(int64_t tick_delta) {
  return tick_delta <= 0 ? 0 : static_cast<uint64_t>(tick_delta);
}

namespace internal {

size_t ThreadShardIndex() {
  static std::atomic<size_t> next_index{0};
  thread_local const size_t index =
      next_index.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace internal

// --- Histogram -----------------------------------------------------------

size_t Histogram::BucketIndex(uint64_t value) {
  constexpr uint64_t kLinearLimit = uint64_t{1} << (kSubBits + 1);
  if (value < kLinearLimit) return static_cast<size_t>(value);
  const int msb = 63 - __builtin_clzll(value);
  const uint64_t sub =
      (value >> (msb - kSubBits)) & ((uint64_t{1} << kSubBits) - 1);
  return kLinearLimit +
         static_cast<size_t>(msb - kSubBits - 1) * (size_t{1} << kSubBits) +
         static_cast<size_t>(sub);
}

uint64_t Histogram::BucketLowerBound(size_t index) {
  constexpr size_t kLinearLimit = size_t{1} << (kSubBits + 1);
  if (index >= kNumBuckets) return UINT64_MAX;  // one-past-last sentinel
  if (index < kLinearLimit) return index;
  const size_t rel = index - kLinearLimit;
  const size_t octave = (kSubBits + 1) + rel / (size_t{1} << kSubBits);
  const uint64_t sub = rel % (size_t{1} << kSubBits);
  return (uint64_t{1} << octave) +
         sub * (uint64_t{1} << (octave - kSubBits));
}

HistogramData Histogram::Snapshot() const {
  HistogramData data;
  data.buckets.resize(kNumBuckets);
  for (size_t i = 0; i < kNumBuckets; ++i) {
    data.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    data.count += data.buckets[i];
  }
  data.sum = sum_.load(std::memory_order_relaxed);
  data.max = max_.load(std::memory_order_relaxed);
  const uint64_t min = min_.load(std::memory_order_relaxed);
  data.min = (data.count == 0 || min == UINT64_MAX) ? 0 : min;
  return data;
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
}

namespace {

/// Shared rank-interpolation core: given the bucket [lo, hi) that holds
/// `rank` (with `before` observations in earlier buckets and `in_bucket`
/// in this one), place the percentile linearly within the bucket and
/// clamp it to the observed [min, max] envelope.
double InterpolateInBucket(double rank, double before, double in_bucket,
                           uint64_t lo, uint64_t hi, uint64_t min,
                           uint64_t max) {
  double frac = in_bucket > 0 ? (rank - before) / in_bucket : 0.0;
  if (frac < 0.0) frac = 0.0;
  if (frac > 1.0) frac = 1.0;
  double value = static_cast<double>(lo) +
                 (static_cast<double>(hi) - static_cast<double>(lo)) * frac;
  if (value < static_cast<double>(min)) value = static_cast<double>(min);
  if (value > static_cast<double>(max)) value = static_cast<double>(max);
  return value;
}

}  // namespace

double HistogramData::Percentile(double p) const {
  if (count == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const uint64_t before = cumulative;
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) >= rank) {
      return InterpolateInBucket(rank, static_cast<double>(before),
                                 static_cast<double>(buckets[i]),
                                 Histogram::BucketLowerBound(i),
                                 Histogram::BucketLowerBound(i + 1), min, max);
    }
  }
  return static_cast<double>(max);
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(count);
  uint64_t before = 0;
  uint64_t lo = 0;  // exclusive upper bound of the previous bucket + 1
  for (const auto& [upper, cumulative] : cumulative_buckets) {
    if (static_cast<double>(cumulative) >= rank) {
      return InterpolateInBucket(rank, static_cast<double>(before),
                                 static_cast<double>(cumulative - before), lo,
                                 upper + 1, min, max);
    }
    before = cumulative;
    lo = upper + 1;
  }
  return static_cast<double>(max);
}

// --- Snapshot lookups & serialization ------------------------------------

const CounterSnapshot* MetricsSnapshot::FindCounter(
    std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GaugeSnapshot* MetricsSnapshot::FindGauge(std::string_view name) const {
  for (const auto& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramSnapshot* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

uint64_t MetricsSnapshot::CounterValue(std::string_view name) const {
  const CounterSnapshot* c = FindCounter(name);
  return c == nullptr ? 0 : c->value;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& c : counters) {
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendJsonEscaped(out, c.name);
    out += "\":" + std::to_string(c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& g : gauges) {
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendJsonEscaped(out, g.name);
    out += "\":" + std::to_string(g.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& h : histograms) {
    if (!first) out += ',';
    first = false;
    out += '"';
    AppendJsonEscaped(out, h.name);
    out += "\":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + std::to_string(h.sum) +
           ",\"min\":" + std::to_string(h.min) +
           ",\"max\":" + std::to_string(h.max) + ",\"mean\":";
    AppendDouble(out, h.mean);
    out += ",\"p50\":";
    AppendDouble(out, h.p50);
    out += ",\"p95\":";
    AppendDouble(out, h.p95);
    out += ",\"p99\":";
    AppendDouble(out, h.p99);
    out += ",\"p999\":";
    AppendDouble(out, h.p999);
    out += ",\"buckets\":[";
    bool first_bucket = true;
    for (const auto& [upper, cumulative] : h.cumulative_buckets) {
      if (!first_bucket) out += ',';
      first_bucket = false;
      out += "[" + std::to_string(upper) + "," +
             std::to_string(cumulative) + "]";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string PrometheusEscapeLabel(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  for (const auto& c : counters) {
    const std::string name = PrometheusName(c.name);
    out += "# HELP " + name + " " + MetricHelp(c.name) + "\n";
    out += "# TYPE " + name + " counter\n";
    out += name + " " + std::to_string(c.value) + "\n";
  }
  for (const auto& g : gauges) {
    const std::string name = PrometheusName(g.name);
    out += "# HELP " + name + " " + MetricHelp(g.name) + "\n";
    out += "# TYPE " + name + " gauge\n";
    out += name + " " + std::to_string(g.value) + "\n";
  }
  for (const auto& h : histograms) {
    const std::string name = PrometheusName(h.name);
    out += "# HELP " + name + " " + MetricHelp(h.name) + "\n";
    out += "# TYPE " + name + " histogram\n";
    for (const auto& [upper, cumulative] : h.cumulative_buckets) {
      out += name + "_bucket{le=\"" + std::to_string(upper) +
             "\"} " + std::to_string(cumulative) + "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += name + "_sum " + std::to_string(h.sum) + "\n";
    out += name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  char buf[256];
  for (const auto& c : counters) {
    std::snprintf(buf, sizeof(buf), "%-34s %20llu\n", c.name.c_str(),
                  static_cast<unsigned long long>(c.value));
    out += buf;
  }
  for (const auto& g : gauges) {
    std::snprintf(buf, sizeof(buf), "%-34s %20lld\n", g.name.c_str(),
                  static_cast<long long>(g.value));
    out += buf;
  }
  for (const auto& h : histograms) {
    std::snprintf(buf, sizeof(buf),
                  "%-34s count %-10llu p50 %-10.0f p95 %-10.0f p99 %-10.0f "
                  "max %llu\n",
                  h.name.c_str(), static_cast<unsigned long long>(h.count),
                  h.p50, h.p95, h.p99,
                  static_cast<unsigned long long>(h.max));
    out += buf;
  }
  return out;
}

// --- MetricsRegistry -----------------------------------------------------

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::MetricsRegistry() {
  // Pre-register the engine's core metrics so every export surface (in
  // particular `dbinspect stats --metrics-json` on a process that never
  // ran a workload) serializes them, if only as zeros.
  const char* counters[] = {
      "nvm.persist.count",   "nvm.fence.count",      "nvm.flush.lines",
      "nvm.flush.bytes",     "wal.fsync.count",      "wal.io.retries",
      "wal.degraded.flips",  "txn.begin.count",      "txn.commit.count",
      "txn.abort.count",     "merge.count",          "alloc.alloc.count",
      "alloc.free.count",    "fault.fires.count",    "db.open.count",
      "blackbox.resets.count",
  };
  for (const char* name : counters) {
    counters_.emplace(name, std::make_unique<Counter>());
  }
  const char* histograms[] = {
      "nvm.persist.latency_ns", "wal.fsync.latency_ns",
      "wal.batch.bytes",        "txn.commit.latency_ns",
      "merge.duration_ns",
  };
  for (const char* name : histograms) {
    histograms_.emplace(name, std::make_unique<Histogram>());
  }
  gauges_.emplace("alloc.heap_used.bytes", std::make_unique<Gauge>());
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> guard(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> guard(mutex_);
  MetricsSnapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->Value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.push_back({name, gauge->Value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    const HistogramData data = histogram->Snapshot();
    HistogramSnapshot h;
    h.name = name;
    h.count = data.count;
    h.sum = data.sum;
    h.min = data.min;
    h.max = data.max;
    h.mean = data.Mean();
    h.p50 = data.Percentile(50);
    h.p95 = data.Percentile(95);
    h.p99 = data.Percentile(99);
    h.p999 = data.Percentile(99.9);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < data.buckets.size(); ++i) {
      if (data.buckets[i] == 0) continue;
      cumulative += data.buckets[i];
      h.cumulative_buckets.emplace_back(
          Histogram::BucketLowerBound(i + 1) - 1, cumulative);
    }
    snapshot.histograms.push_back(std::move(h));
  }
  return snapshot;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> guard(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace hyrise_nv::obs
