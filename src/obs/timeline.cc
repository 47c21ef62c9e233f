#include "obs/timeline.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/json.h"

namespace hyrise_nv::obs {

namespace {

uint64_t WallClockMillis() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// Per-interval histogram view: the bucket-count delta between two
/// cumulative snapshots, packaged as a HistogramData so the shared
/// rank-interpolation percentile estimator applies unchanged. The
/// interval min/max envelope is reconstructed from the outermost
/// non-empty delta buckets (the cumulative min/max cover the process
/// lifetime, not the interval).
HistogramData IntervalDelta(const HistogramData& prev,
                            const HistogramData& cur) {
  HistogramData delta;
  delta.buckets.resize(cur.buckets.size());
  size_t lowest = cur.buckets.size();
  size_t highest = 0;
  for (size_t i = 0; i < cur.buckets.size(); ++i) {
    const uint64_t before = i < prev.buckets.size() ? prev.buckets[i] : 0;
    const uint64_t d = cur.buckets[i] >= before ? cur.buckets[i] - before : 0;
    delta.buckets[i] = d;
    if (d != 0) {
      delta.count += d;
      if (lowest == cur.buckets.size()) lowest = i;
      highest = i;
    }
  }
  delta.sum = cur.sum >= prev.sum ? cur.sum - prev.sum : 0;
  if (delta.count != 0) {
    delta.min = Histogram::BucketLowerBound(lowest);
    const uint64_t upper = Histogram::BucketLowerBound(highest + 1);
    delta.max = upper > 0 ? upper - 1 : 0;
    // The lifetime max is exact; use it when it falls inside the top
    // interval bucket (the common "this interval set the record" case).
    if (cur.max >= delta.min && cur.max <= delta.max) delta.max = cur.max;
  }
  return delta;
}

void AppendCsvField(std::string& out, const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) {
    out += field;
    return;
  }
  out += '"';
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

}  // namespace

const char* PhaseKindName(PhaseKind kind) {
  switch (kind) {
    case PhaseKind::kBegin:
      return "begin";
    case PhaseKind::kEnd:
      return "end";
    case PhaseKind::kPoint:
      return "point";
  }
  return "?";
}

TimelineConfig TimelineConfig::Default() {
  TimelineConfig config;
  config.counters = {
      "txn.commit.count",  "txn.abort.count",
      "wal.fsync.count",   "nvm.persist.count",
      "net.requests.count", "merge.count",
  };
  config.gauges = {
      "alloc.heap_used.bytes",     "process.rss_bytes",
      "nvm.region.used_bytes",     "nvm.region.capacity_bytes",
      "db.serving_degraded",       "net.connections.open",
  };
  config.histograms = {
      "txn.commit.latency_ns",
      "wal.fsync.latency_ns",
      "net.request.latency_ns",
  };
  return config;
}

bool PhaseFromBlackboxEvent(const BlackboxDecodedEvent& ev,
                            PhaseAnnotation* out) {
  switch (static_cast<BlackboxEventType>(ev.type)) {
    case BlackboxEventType::kMergeStart:
      *out = {"merge", PhaseKind::kBegin, 0, ev.a};
      return true;
    case BlackboxEventType::kMergeEnd:
      *out = {"merge", PhaseKind::kEnd, 0, ev.d};
      return true;
    case BlackboxEventType::kCheckpointStart:
      *out = {"checkpoint", PhaseKind::kBegin, 0, 0};
      return true;
    case BlackboxEventType::kCheckpoint:
      *out = {"checkpoint", PhaseKind::kEnd, 0, ev.a};
      return true;
    case BlackboxEventType::kCheckpointFallback:
      *out = {"checkpoint_fallback", PhaseKind::kPoint, 0, 0};
      return true;
    case BlackboxEventType::kDegradedOpen:
      *out = {"recovery_drain", PhaseKind::kBegin, 0, ev.a};
      return true;
    case BlackboxEventType::kRecoveryDrainDone:
      *out = {"recovery_drain", PhaseKind::kEnd, 0, ev.a};
      return true;
    case BlackboxEventType::kWalDegraded:
      *out = {"wal_degraded", PhaseKind::kPoint, 0, ev.a};
      return true;
    case BlackboxEventType::kFaultFire:
      *out = {"fault", PhaseKind::kPoint, 0, ev.a};
      return true;
    case BlackboxEventType::kCrashSignal:
      *out = {"crash_signal", PhaseKind::kPoint, 0, ev.a};
      return true;
    case BlackboxEventType::kDrain:
      *out = {"server_drain", PhaseKind::kPoint, 0, ev.a};
      return true;
    default:
      return false;
  }
}

TimelineRecorder::TimelineRecorder(TimelineConfig config)
    : config_([](TimelineConfig c) {
        if (c.interval_ms == 0) c.interval_ms = 1000;
        if (c.capacity == 0) c.capacity = 1;
        return c;
      }(std::move(config))) {
  auto& registry = MetricsRegistry::Instance();
  counters_.reserve(config_.counters.size());
  for (const std::string& name : config_.counters) {
    counters_.push_back(&registry.GetCounter(name));
  }
  counter_baseline_.resize(counters_.size(), 0);
  gauges_.reserve(config_.gauges.size());
  for (const std::string& name : config_.gauges) {
    gauges_.push_back(&registry.GetGauge(name));
  }
  hists_.reserve(config_.histograms.size());
  for (const std::string& name : config_.histograms) {
    HistState state;
    state.histogram = &registry.GetHistogram(name);
    hists_.push_back(std::move(state));
  }
  ring_.resize(config_.capacity);
}

TimelineRecorder::~TimelineRecorder() { Stop(); }

void TimelineRecorder::SetPreSampleHook(std::function<void()> hook) {
  std::lock_guard<std::mutex> guard(mutex_);
  pre_sample_ = std::move(hook);
}

void TimelineRecorder::Start() {
  std::lock_guard<std::mutex> guard(mutex_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void TimelineRecorder::Stop() {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  running_ = false;
}

void TimelineRecorder::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    lock.unlock();
    Capture();
    if (BlackboxWriter* bb = BlackboxWriter::Current()) bb->Flush();
    lock.lock();
    cv_.wait_for(lock, std::chrono::milliseconds(config_.interval_ms),
                 [this] { return stop_; });
  }
}

void TimelineRecorder::TickOnce() { Capture(); }

void TimelineRecorder::Annotate(std::string phase, PhaseKind kind,
                                uint64_t detail) {
  std::lock_guard<std::mutex> guard(mutex_);
  pending_.push_back(
      {std::move(phase), kind, next_order_++, detail});
}

void TimelineRecorder::ApplyToActiveState(const PhaseAnnotation& ann) {
  switch (ann.kind) {
    case PhaseKind::kBegin:
      ++active_depth_[ann.phase];
      break;
    case PhaseKind::kEnd: {
      auto it = active_depth_.find(ann.phase);
      if (it != active_depth_.end() && --it->second <= 0) {
        active_depth_.erase(it);
      }
      break;
    }
    case PhaseKind::kPoint:
      break;
  }
}

void TimelineRecorder::SpliceBlackbox() {
  BlackboxWriter* bb = BlackboxWriter::Current();
  if (bb == nullptr) {
    bb_primed_ = true;
    return;
  }
  // Decode outside the lock: the rings are lock-free for writers, and a
  // torn in-flight slot fails its CRC and is dropped, never misread.
  const BlackboxDecodeResult decoded =
      DecodeBlackbox(bb->region().base(), bb->region().size());
  std::lock_guard<std::mutex> guard(mutex_);
  const bool priming = !bb_primed_;
  for (const BlackboxDecodedEvent& ev : decoded.events) {
    if (ev.seqno <= last_bb_seqno_) continue;
    last_bb_seqno_ = ev.seqno;
    PhaseAnnotation ann;
    if (!PhaseFromBlackboxEvent(ev, &ann)) continue;
    if (priming) {
      // Events from before the recorder existed establish which phases
      // are *currently* active (a drain begun at open must show as
      // active in the first sample) but are not themselves samples'
      // events. Earlier-session events (negative relative time) carry
      // no live phase state.
      if (decoded.RelativeMs(ev) >= 0) ApplyToActiveState(ann);
      continue;
    }
    ann.order = next_order_++;
    pending_.push_back(std::move(ann));
  }
  bb_primed_ = true;
}

void TimelineRecorder::Capture() {
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    hook = pre_sample_;
  }
  if (hook) hook();
  SpliceBlackbox();

  // Read the metric sources without the lock (they are lock-free).
  std::vector<uint64_t> counter_values(counters_.size());
  for (size_t i = 0; i < counters_.size(); ++i) {
    counter_values[i] = counters_[i]->Value();
  }
  std::vector<int64_t> gauge_values(gauges_.size());
  for (size_t i = 0; i < gauges_.size(); ++i) {
    gauge_values[i] = gauges_[i]->Value();
  }
  std::vector<HistogramData> hist_snaps(hists_.size());
  for (size_t i = 0; i < hists_.size(); ++i) {
    hist_snaps[i] = hists_[i].histogram->Snapshot();
  }

  TimelineSample sample;
  sample.epoch_ms = WallClockMillis();

  std::lock_guard<std::mutex> guard(mutex_);
  sample.elapsed_ms =
      baseline_valid_ && sample.epoch_ms > last_capture_ms_
          ? sample.epoch_ms - last_capture_ms_
          : 0;
  last_capture_ms_ = sample.epoch_ms;

  sample.counter_deltas.resize(counters_.size(), 0);
  if (baseline_valid_) {
    for (size_t i = 0; i < counters_.size(); ++i) {
      sample.counter_deltas[i] =
          counter_values[i] >= counter_baseline_[i]
              ? counter_values[i] - counter_baseline_[i]
              : 0;
    }
  }
  counter_baseline_ = counter_values;
  sample.gauge_values = std::move(gauge_values);

  sample.hist_stats.resize(hists_.size());
  for (size_t i = 0; i < hists_.size(); ++i) {
    if (hists_[i].valid) {
      const HistogramData delta =
          IntervalDelta(hists_[i].prev, hist_snaps[i]);
      IntervalHistStat& stat = sample.hist_stats[i];
      stat.count = delta.count;
      stat.p50 = delta.Percentile(50);
      stat.p99 = delta.Percentile(99);
      stat.p999 = delta.Percentile(99.9);
      stat.max = delta.max;
    }
    hists_[i].prev = std::move(hist_snaps[i]);
    hists_[i].valid = true;
  }
  baseline_valid_ = true;

  // Drain pending annotations into this sample: everything that arrived
  // since the previous tick belongs to the interval it closed.
  std::sort(pending_.begin(), pending_.end(),
            [](const PhaseAnnotation& a, const PhaseAnnotation& b) {
              return a.order < b.order;
            });
  // Active set: phases live at interval start plus any begun within it.
  std::vector<std::string> active;
  for (const auto& [phase, depth] : active_depth_) {
    if (depth > 0) active.push_back(phase);
  }
  for (const PhaseAnnotation& ann : pending_) {
    if (ann.kind == PhaseKind::kBegin) active.push_back(ann.phase);
    ApplyToActiveState(ann);
  }
  std::sort(active.begin(), active.end());
  active.erase(std::unique(active.begin(), active.end()), active.end());
  sample.active_phases = std::move(active);
  sample.events = std::move(pending_);
  pending_.clear();

  ring_[next_] = std::move(sample);
  next_ = (next_ + 1) % config_.capacity;
  if (count_ < config_.capacity) ++count_;
}

std::vector<TimelineSample> TimelineRecorder::Samples() const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<TimelineSample> out;
  out.reserve(count_);
  const size_t start = (next_ + config_.capacity - count_) % config_.capacity;
  for (size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % config_.capacity]);
  }
  return out;
}

std::string TimelineRecorder::ToJson() const {
  using common::AppendJsonEscaped;
  const std::vector<TimelineSample> samples = Samples();
  std::string out = "{\"interval_ms\":" + std::to_string(config_.interval_ms) +
                    ",\"capacity\":" + std::to_string(config_.capacity) +
                    ",\"samples\":[";
  char buf[128];
  for (size_t s = 0; s < samples.size(); ++s) {
    const TimelineSample& sample = samples[s];
    if (s != 0) out += ',';
    out += "{\"epoch_ms\":" + std::to_string(sample.epoch_ms) +
           ",\"elapsed_ms\":" + std::to_string(sample.elapsed_ms) +
           ",\"counters\":{";
    for (size_t i = 0; i < config_.counters.size(); ++i) {
      if (i != 0) out += ',';
      out += '"';
      AppendJsonEscaped(out, config_.counters[i]);
      out += "\":" + std::to_string(sample.counter_deltas.size() > i
                                        ? sample.counter_deltas[i]
                                        : 0);
    }
    out += "},\"gauges\":{";
    for (size_t i = 0; i < config_.gauges.size(); ++i) {
      if (i != 0) out += ',';
      out += '"';
      AppendJsonEscaped(out, config_.gauges[i]);
      out += "\":" + std::to_string(sample.gauge_values.size() > i
                                        ? sample.gauge_values[i]
                                        : 0);
    }
    out += "},\"histograms\":{";
    for (size_t i = 0; i < config_.histograms.size(); ++i) {
      if (i != 0) out += ',';
      const IntervalHistStat stat = sample.hist_stats.size() > i
                                        ? sample.hist_stats[i]
                                        : IntervalHistStat{};
      out += '"';
      AppendJsonEscaped(out, config_.histograms[i]);
      std::snprintf(buf, sizeof(buf),
                    "\":{\"count\":%llu,\"p50\":%.1f,\"p99\":%.1f,"
                    "\"p999\":%.1f,\"max\":%llu}",
                    static_cast<unsigned long long>(stat.count), stat.p50,
                    stat.p99, stat.p999,
                    static_cast<unsigned long long>(stat.max));
      out += buf;
    }
    out += "},\"active_phases\":[";
    for (size_t i = 0; i < sample.active_phases.size(); ++i) {
      if (i != 0) out += ',';
      out += '"';
      AppendJsonEscaped(out, sample.active_phases[i]);
      out += '"';
    }
    out += "],\"events\":[";
    for (size_t i = 0; i < sample.events.size(); ++i) {
      const PhaseAnnotation& ann = sample.events[i];
      if (i != 0) out += ',';
      out += "{\"phase\":\"";
      AppendJsonEscaped(out, ann.phase);
      out += "\",\"kind\":\"";
      out += PhaseKindName(ann.kind);
      out += "\",\"order\":" + std::to_string(ann.order) +
             ",\"detail\":" + std::to_string(ann.detail) + "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string TimelineRecorder::ToCsv() const {
  const std::vector<TimelineSample> samples = Samples();
  std::string out = "epoch_ms,elapsed_ms";
  for (const std::string& name : config_.counters) {
    out += ',';
    AppendCsvField(out, name);
  }
  for (const std::string& name : config_.gauges) {
    out += ',';
    AppendCsvField(out, name);
  }
  for (const std::string& name : config_.histograms) {
    for (const char* suffix : {".count", ".p50", ".p99", ".p999"}) {
      out += ',';
      AppendCsvField(out, name + suffix);
    }
  }
  out += ",active_phases,events\n";
  char buf[64];
  for (const TimelineSample& sample : samples) {
    out += std::to_string(sample.epoch_ms) + ',' +
           std::to_string(sample.elapsed_ms);
    for (size_t i = 0; i < config_.counters.size(); ++i) {
      out += ',' + std::to_string(sample.counter_deltas.size() > i
                                      ? sample.counter_deltas[i]
                                      : 0);
    }
    for (size_t i = 0; i < config_.gauges.size(); ++i) {
      out += ',' + std::to_string(
                       sample.gauge_values.size() > i ? sample.gauge_values[i]
                                                      : 0);
    }
    for (size_t i = 0; i < config_.histograms.size(); ++i) {
      const IntervalHistStat stat =
          sample.hist_stats.size() > i ? sample.hist_stats[i]
                                       : IntervalHistStat{};
      out += ',' + std::to_string(stat.count);
      for (double p : {stat.p50, stat.p99, stat.p999}) {
        std::snprintf(buf, sizeof(buf), ",%.1f", p);
        out += buf;
      }
    }
    std::string phases;
    for (size_t i = 0; i < sample.active_phases.size(); ++i) {
      if (i != 0) phases += ';';
      phases += sample.active_phases[i];
    }
    out += ',';
    AppendCsvField(out, phases);
    std::string events;
    for (size_t i = 0; i < sample.events.size(); ++i) {
      if (i != 0) events += ';';
      events += sample.events[i].phase;
      events += ':';
      events += PhaseKindName(sample.events[i].kind);
    }
    out += ',';
    AppendCsvField(out, events);
    out += '\n';
  }
  return out;
}

// --- Offline phase timeline ------------------------------------------------

std::vector<PhaseSpan> PhaseSpansFromBlackbox(
    const BlackboxDecodeResult& decoded) {
  std::vector<PhaseSpan> out;
  // phase name -> index of the innermost open span of that phase.
  std::map<std::string, std::vector<size_t>> open_spans;
  for (const BlackboxDecodedEvent& ev : decoded.events) {
    PhaseAnnotation ann;
    if (!PhaseFromBlackboxEvent(ev, &ann)) continue;
    const double at_ms = decoded.RelativeMs(ev);
    switch (ann.kind) {
      case PhaseKind::kPoint: {
        PhaseSpan span;
        span.phase = ann.phase;
        span.start_ms = span.end_ms = at_ms;
        span.point = true;
        span.detail = ann.detail;
        out.push_back(std::move(span));
        break;
      }
      case PhaseKind::kBegin: {
        PhaseSpan span;
        span.phase = ann.phase;
        span.start_ms = at_ms;
        span.end_ms = at_ms;
        span.open = true;
        span.detail = ann.detail;
        open_spans[ann.phase].push_back(out.size());
        out.push_back(std::move(span));
        break;
      }
      case PhaseKind::kEnd: {
        auto it = open_spans.find(ann.phase);
        if (it == open_spans.end() || it->second.empty()) break;
        PhaseSpan& span = out[it->second.back()];
        it->second.pop_back();
        span.end_ms = at_ms;
        span.open = false;
        if (span.detail == 0) span.detail = ann.detail;
        break;
      }
    }
  }
  return out;
}

std::string PhaseSpansJson(const std::vector<PhaseSpan>& spans) {
  using common::AppendJsonEscaped;
  std::string out = "{\"spans\":[";
  bool first = true;
  for (const PhaseSpan& span : spans) {
    if (span.point) continue;
    if (!first) out += ',';
    first = false;
    char buf[128];
    out += "{\"phase\":\"";
    AppendJsonEscaped(out, span.phase);
    std::snprintf(buf, sizeof(buf),
                  "\",\"start_ms\":%.3f,\"end_ms\":%.3f,\"open\":%s,"
                  "\"detail\":%llu}",
                  span.start_ms, span.end_ms, span.open ? "true" : "false",
                  static_cast<unsigned long long>(span.detail));
    out += buf;
  }
  out += "],\"points\":[";
  first = true;
  for (const PhaseSpan& span : spans) {
    if (!span.point) continue;
    if (!first) out += ',';
    first = false;
    char buf[96];
    out += "{\"phase\":\"";
    AppendJsonEscaped(out, span.phase);
    std::snprintf(buf, sizeof(buf), "\",\"at_ms\":%.3f,\"detail\":%llu}",
                  span.start_ms,
                  static_cast<unsigned long long>(span.detail));
    out += buf;
  }
  out += "]}";
  return out;
}

std::string RenderPhaseSpans(const std::vector<PhaseSpan>& spans) {
  std::string out;
  char buf[192];
  if (spans.empty()) return "no phase events recorded\n";
  for (const PhaseSpan& span : spans) {
    if (span.point) {
      std::snprintf(buf, sizeof(buf), "  %10.1f ms  *  %-20s detail=%llu\n",
                    span.start_ms, span.phase.c_str(),
                    static_cast<unsigned long long>(span.detail));
    } else if (span.open) {
      std::snprintf(buf, sizeof(buf),
                    "  %10.1f ms  [  %-20s (open — never finished)\n",
                    span.start_ms, span.phase.c_str());
    } else {
      std::snprintf(buf, sizeof(buf),
                    "  %10.1f ms  [] %-20s %.1f ms wide\n", span.start_ms,
                    span.phase.c_str(), span.end_ms - span.start_ms);
    }
    out += buf;
  }
  return out;
}

}  // namespace hyrise_nv::obs
