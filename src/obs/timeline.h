#ifndef HYRISE_NV_OBS_TIMELINE_H_
#define HYRISE_NV_OBS_TIMELINE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "obs/blackbox.h"
#include "obs/metrics.h"

namespace hyrise_nv::obs {

/// Time-dimension observability (DESIGN.md §15): where MetricsSnapshot
/// answers "what are the counters now" and the request histograms answer
/// "where did this request's latency go", the TimelineRecorder answers
/// "how did throughput and latency evolve across that merge + checkpoint
/// + recovery cycle". A configurable metric set (counter deltas, gauge
/// values, per-interval histogram percentiles from bucket diffs) is
/// sampled into a bounded ring, with phase annotations spliced in from
/// the flight recorder so every sample knows which maintenance phase it
/// landed in. Each tick also flushes the flight recorder.

/// Which metrics each sample captures, by registry name.
struct TimelineConfig {
  uint64_t interval_ms = 1000;
  size_t capacity = 600;  // ring slots (~10 min at 1 s resolution)
  /// Monotonic counters, recorded as per-interval deltas (rates).
  std::vector<std::string> counters;
  /// Gauges, recorded as absolute values at the tick.
  std::vector<std::string> gauges;
  /// Histograms, recorded as per-interval percentile stats computed from
  /// the bucket-count delta against the previous tick (so a sample's p99
  /// covers only that interval, not the process lifetime).
  std::vector<std::string> histograms;

  /// The engine's standard temporal metric set: commit/abort/fsync/
  /// persist rates, request rate, heap/RSS/NVM-region gauges, recovery
  /// backlog, and commit/fsync/request latency percentiles.
  static TimelineConfig Default();
};

/// A phase transition or point event attached to a sample.
enum class PhaseKind : uint8_t { kBegin, kEnd, kPoint };

const char* PhaseKindName(PhaseKind kind);

struct PhaseAnnotation {
  std::string phase;  // "merge", "checkpoint", "recovery_drain", ...
  PhaseKind kind = PhaseKind::kPoint;
  uint64_t order = 0;   // monotonic arrival stamp (sort key)
  uint64_t detail = 0;  // event payload (table id, duration ns, ...)
};

/// Per-interval percentile stats of one configured histogram.
struct IntervalHistStat {
  uint64_t count = 0;  // observations within the interval
  double p50 = 0;
  double p99 = 0;
  double p999 = 0;
  uint64_t max = 0;  // upper bound of the highest non-empty delta bucket
};

/// One timeline point. The metric vectors run parallel to the config's
/// name vectors.
struct TimelineSample {
  uint64_t epoch_ms = 0;    // wall clock at capture
  uint64_t elapsed_ms = 0;  // actual time covered (0 for the first tick)
  std::vector<uint64_t> counter_deltas;
  std::vector<int64_t> gauge_values;
  std::vector<IntervalHistStat> hist_stats;
  /// Phase transitions that landed in this interval, in arrival order.
  std::vector<PhaseAnnotation> events;
  /// Phases active at any point during the interval (sorted, deduped).
  std::vector<std::string> active_phases;
};

/// Background timeline historian. Start() runs a sampler thread at
/// interval_ms; TickOnce() captures synchronously (tests, benches, and a
/// final point). Phase annotations arrive two ways: spliced from new
/// flight-recorder events (merge start/end, checkpoint, recovery drain,
/// degraded flips, fault fires) at each tick, and directly via
/// Annotate() for processes without a recorder.
class TimelineRecorder {
 public:
  explicit TimelineRecorder(TimelineConfig config);
  ~TimelineRecorder();

  HYRISE_NV_DISALLOW_COPY_AND_MOVE(TimelineRecorder);

  void Start();
  void Stop();
  bool running() const { return running_; }

  /// Runs before every capture while holding no recorder locks — the
  /// owner uses it to sync passively-maintained metrics (RSS, NVM region
  /// stats, WAL totals) into the registry so gauges are live.
  void SetPreSampleHook(std::function<void()> hook);

  void TickOnce();

  /// Records a phase annotation directly (no flight recorder needed).
  /// Attached to the next captured sample.
  void Annotate(std::string phase, PhaseKind kind, uint64_t detail = 0);

  std::vector<TimelineSample> Samples() const;
  const TimelineConfig& config() const { return config_; }

  /// {"interval_ms":..,"capacity":..,"samples":[{..,"counters":{..},
  /// "gauges":{..},"histograms":{..},"active_phases":[..],
  /// "events":[..]},..]} oldest first. Metric names are JSON-escaped.
  std::string ToJson() const;

  /// RFC-4180-style CSV: one row per sample, one column per metric
  /// (histograms expand to .count/.p50/.p99/.p999), plus active_phases
  /// and events columns (';'-joined).
  std::string ToCsv() const;

 private:
  struct HistState {
    Histogram* histogram = nullptr;
    HistogramData prev;
    bool valid = false;
  };

  void Loop();
  void Capture();
  /// Decodes flight-recorder events newer than the last splice into
  /// pending annotations. The first call only primes the phase state
  /// from current-session events (phases that began before the recorder
  /// started still show as active) without emitting annotations.
  void SpliceBlackbox();
  void ApplyToActiveState(const PhaseAnnotation& ann);

  const TimelineConfig config_;
  std::function<void()> pre_sample_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool running_ = false;
  std::thread thread_;

  // Cached metric references (registry lookups once, at construction).
  std::vector<Counter*> counters_;
  std::vector<Gauge*> gauges_;
  std::vector<HistState> hists_;
  std::vector<uint64_t> counter_baseline_;
  bool baseline_valid_ = false;
  uint64_t last_capture_ms_ = 0;

  // Phase state.
  std::vector<PhaseAnnotation> pending_;
  std::map<std::string, int> active_depth_;
  uint64_t next_order_ = 1;
  uint64_t last_bb_seqno_ = 0;
  bool bb_primed_ = false;

  std::vector<TimelineSample> ring_;
  size_t next_ = 0;
  size_t count_ = 0;
};

/// Maps a flight-recorder event to a phase annotation; false for events
/// that are not phase-relevant (txn begin/commit, persists, ...).
bool PhaseFromBlackboxEvent(const BlackboxDecodedEvent& ev,
                            PhaseAnnotation* out);

// --- Offline phase timeline (dbinspect timeline) --------------------------

/// A maintenance window reconstructed from a decoded flight recorder.
struct PhaseSpan {
  std::string phase;
  double start_ms = 0;  // relative to the recorder's last attach
  double end_ms = 0;    // == start_ms for points; meaningless when open
  bool open = false;    // no end event decoded (crash mid-phase)
  bool point = false;   // instantaneous event, not a window
  uint64_t detail = 0;
};

/// Reconstructs phase spans (merge/checkpoint/recovery windows) and
/// point events (faults, degraded flips, crash signals) from a decoded
/// recorder, oldest first. Begin events without an end decode as open
/// spans; unmatched ends are dropped.
std::vector<PhaseSpan> PhaseSpansFromBlackbox(
    const BlackboxDecodeResult& decoded);

/// {"spans":[{"phase":..,"start_ms":..,"end_ms":..,"open":..},..],
///  "points":[{"phase":..,"at_ms":..,"detail":..},..]}
std::string PhaseSpansJson(const std::vector<PhaseSpan>& spans);

/// Human-readable span table for CLI output.
std::string RenderPhaseSpans(const std::vector<PhaseSpan>& spans);

}  // namespace hyrise_nv::obs

#endif  // HYRISE_NV_OBS_TIMELINE_H_
